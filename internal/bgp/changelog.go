package bgp

import "ipscope/internal/ipv4"

// ChangeKind classifies a routing change between two snapshots.
type ChangeKind uint8

// The change kinds considered "BGP change events" in Section 4.2.
const (
	Announce     ChangeKind = iota // prefix newly announced
	Withdraw                       // prefix withdrawn
	OriginChange                   // same prefix, different origin AS
)

// String returns the change kind name.
func (k ChangeKind) String() string {
	switch k {
	case Announce:
		return "announce"
	case Withdraw:
		return "withdraw"
	case OriginChange:
		return "origin-change"
	}
	return "unknown"
}

// Change is one routing change between two snapshots.
type Change struct {
	Kind      ChangeKind
	Prefix    ipv4.Prefix
	OldOrigin ASN // zero for Announce
	NewOrigin ASN // zero for Withdraw
}

// ChangeLog is a compact representation of a year of routing history:
// a base table plus the list of changes that took effect at the start
// of each day. It answers the questions the churn analyses ask —
// "did any BGP change touch this block within a window of days?" —
// without materializing hundreds of full snapshots.
type ChangeLog struct {
	Base *Table
	// DayChanges[d] holds the changes applied at the start of day d.
	// DayChanges[0] is empty by construction.
	DayChanges [][]Change
}

// NewChangeLog creates a change log over base with capacity for days.
func NewChangeLog(base *Table, days int) *ChangeLog {
	return &ChangeLog{Base: base, DayChanges: make([][]Change, days)}
}

// NumDays returns the number of days covered.
func (l *ChangeLog) NumDays() int { return len(l.DayChanges) }

// Record appends a change taking effect at the start of day d.
func (l *ChangeLog) Record(d int, c Change) {
	if d < 0 || d >= len(l.DayChanges) {
		return
	}
	l.DayChanges[d] = append(l.DayChanges[d], c)
}

// ChangesIn returns all changes with effect day in (from, to].
func (l *ChangeLog) ChangesIn(from, to int) []Change {
	var out []Change
	if from < 0 {
		from = -1
	}
	if to >= len(l.DayChanges) {
		to = len(l.DayChanges) - 1
	}
	for d := from + 1; d <= to; d++ {
		out = append(out, l.DayChanges[d]...)
	}
	return out
}

// TouchedBlocks returns the /24 blocks covered by any change in
// (from, to], mapped to a representative change kind (origin changes
// take precedence, mirroring Table 2's classification priority).
func (l *ChangeLog) TouchedBlocks(from, to int) map[ipv4.Block]ChangeKind {
	out := make(map[ipv4.Block]ChangeKind)
	for _, c := range l.ChangesIn(from, to) {
		kind := c.Kind
		c.Prefix.Blocks(func(b ipv4.Block) {
			if prev, ok := out[b]; !ok || (prev != OriginChange && kind == OriginChange) {
				out[b] = kind
			}
		})
	}
	return out
}

// CountsByKind tallies changes in (from, to] by kind.
func (l *ChangeLog) CountsByKind(from, to int) map[ChangeKind]int {
	out := make(map[ChangeKind]int)
	for _, c := range l.ChangesIn(from, to) {
		out[c.Kind]++
	}
	return out
}
