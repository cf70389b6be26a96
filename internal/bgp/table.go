// Package bgp models the parts of global routing the paper's analysis
// needs: daily routing-table snapshots (as from a RouteViews collector),
// longest-prefix-match lookup from IP address to origin AS, and a
// change log of announce/withdraw/origin-change events (Section 4.2).
package bgp

import (
	"fmt"
	"sort"

	"ipscope/internal/ipv4"
)

// ASN is an Autonomous System number.
type ASN uint32

// String formats the ASN in canonical "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Route is one routing-table entry.
type Route struct {
	Prefix ipv4.Prefix
	Origin ASN
}

// Table is a longest-prefix-match routing table built on a binary trie.
// The zero value is an empty table ready for use via Insert.
type Table struct {
	root *node
	n    int
}

type node struct {
	child [2]*node
	route *Route // non-nil if a route terminates here
}

// NewTable returns an empty routing table.
func NewTable() *Table { return &Table{} }

// Len returns the number of routes in the table.
func (t *Table) Len() int { return t.n }

// Insert adds or replaces the route for r.Prefix.
func (t *Table) Insert(r Route) {
	if t.root == nil {
		t.root = &node{}
	}
	cur := t.root
	a := uint32(r.Prefix.Addr())
	for i := 0; i < r.Prefix.Bits(); i++ {
		b := (a >> (31 - uint(i))) & 1
		if cur.child[b] == nil {
			cur.child[b] = &node{}
		}
		cur = cur.child[b]
	}
	if cur.route == nil {
		t.n++
	}
	rc := r
	cur.route = &rc
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Table) Lookup(addr ipv4.Addr) (Route, bool) {
	cur := t.root
	var best *Route
	a := uint32(addr)
	for i := 0; cur != nil; i++ {
		if cur.route != nil {
			best = cur.route
		}
		if i == 32 {
			break
		}
		cur = cur.child[(a>>(31-uint(i)))&1]
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// OriginOf returns the origin AS for addr, or 0 if unrouted.
func (t *Table) OriginOf(addr ipv4.Addr) ASN {
	if r, ok := t.Lookup(addr); ok {
		return r.Origin
	}
	return 0
}

// Routes returns all routes sorted by (address, length).
func (t *Table) Routes() []Route {
	var out []Route
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil {
			out = append(out, *n.route)
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr() < out[j].Prefix.Addr()
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// LinearTable is a reference longest-prefix-match implementation used to
// cross-check the trie in tests and as the baseline in the LPM ablation
// benchmark.
type LinearTable struct {
	routes []Route
}

// NewLinearTable builds a linear-scan table over routes.
func NewLinearTable(routes []Route) *LinearTable {
	return &LinearTable{routes: append([]Route(nil), routes...)}
}

// Lookup returns the longest matching route by scanning every entry.
func (t *LinearTable) Lookup(addr ipv4.Addr) (Route, bool) {
	best := -1
	for i, r := range t.routes {
		if r.Prefix.Contains(addr) {
			if best < 0 || r.Prefix.Bits() > t.routes[best].Prefix.Bits() {
				best = i
			}
		}
	}
	if best < 0 {
		return Route{}, false
	}
	return t.routes[best], true
}
