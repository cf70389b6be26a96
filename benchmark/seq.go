package main

import (
	"fmt"
	"math/rand"

	"ipscope/internal/ipv4"
	"ipscope/internal/synthnet"
)

// class is a request's endpoint. Latencies are reported for two groups
// of classes: point lookups (addr, block) and aggregates (the rest).
type class uint8

const (
	clAddr class = iota
	clBlock
	clPrefix
	clAS
	clSummary
	clMovement
	clDelta
	numClasses
)

var classNames = [numClasses]string{"addr", "block", "prefix", "as", "summary", "movement", "delta"}

func (c class) String() string { return classNames[c] }

// point reports whether c is a point lookup (routed to one replica)
// rather than an aggregate (scatter-gathered, or re-rendered per epoch).
func (c class) point() bool { return c == clAddr || c == clBlock }

// request is one generated operation. For the read workloads path is
// the complete URL; on live-ingest the epoch-dependent part is filled
// in at send time (see liveURL).
type request struct {
	class class
	path  string
	// pin is -1 for a read of the live epoch, else how many epochs
	// behind the newest one the read is pinned with ?epoch=.
	pin int8
}

// sequence is a workload's request stream: a pure function of
// (seed, workload name) over the regenerated world.
type sequence struct {
	reqs []request
	// universe is hot-read's fixed URL set (nil elsewhere): warm-up
	// touches each once, and the oracle sweep checks each once.
	universe []request
	hash     string
}

// keys are the world's lookup targets, in world order (blocks[0] is
// the hottest block under the zipf law, as in ipscope-loadgen).
type keys struct {
	blocks   []ipv4.Block
	asns     []uint32
	prefixes []ipv4.Prefix // announced
	// covering is every distinct /12../24 prefix that covers a world
	// block: cold-read's prefix key space.
	covering []ipv4.Prefix
}

func worldKeys(w *synthnet.World) *keys {
	k := &keys{}
	seen := map[ipv4.Prefix]bool{}
	for _, b := range w.Blocks {
		k.blocks = append(k.blocks, b.Block)
		for bits := 12; bits <= 24; bits++ {
			if p := ipv4.MustNewPrefix(b.Block.First(), bits); !seen[p] {
				seen[p] = true
				k.covering = append(k.covering, p)
			}
		}
	}
	for _, as := range w.ASes {
		k.asns = append(k.asns, uint32(as.Num))
		k.prefixes = append(k.prefixes, as.Prefixes...)
	}
	return k
}

// blend is an endpoint mix as integer weights.
type blend [numClasses]int

var (
	blendHot    = blend{clAddr: 45, clBlock: 25, clPrefix: 12, clAS: 10, clSummary: 6, clMovement: 2}
	blendCold   = blend{clAddr: 55, clBlock: 25, clPrefix: 12, clAS: 8}
	blendRouted = blend{clAddr: 45, clBlock: 25, clPrefix: 12, clAS: 10, clSummary: 8}
	blendLive   = blendHot // ipscope-loadgen's default mix
)

// table expands the weights into a pick table.
func (b blend) table() []class {
	var t []class
	for c, w := range b {
		for i := 0; i < w; i++ {
			t = append(t, class(c))
		}
	}
	return t
}

// The popularity law, as in ipscope-loadgen.
const (
	zipfS = 1.2
	zipfV = 1
)

func addrPath(a ipv4.Addr) string     { return "/v1/addr/" + a.String() }
func blockPath(b ipv4.Block) string   { return "/v1/block/" + b.String() }
func prefixPath(p ipv4.Prefix) string { return "/v1/prefix/" + p.String() }
func asPath(n uint32) string          { return fmt.Sprintf("/v1/as/AS%d", n) }

// genSequence builds workload name's n-request sequence for seed.
func genSequence(name string, seed uint64, k *keys, n int) *sequence {
	rng := rand.New(rand.NewSource(int64(seed*7919+17) ^ int64(hashLines(name))))
	s := &sequence{reqs: make([]request, 0, n)}
	zipfBlock := rand.NewZipf(rng, zipfS, zipfV, uint64(len(k.blocks)-1))
	hotBlock := func() ipv4.Block { return k.blocks[zipfBlock.Uint64()] }
	anyBlock := func() ipv4.Block { return k.blocks[rng.Intn(len(k.blocks))] }
	anyHost := func() byte { return byte(rng.Intn(256)) }

	// zipfKeyed is the loadgen "steady" generator: zipf-popular blocks
	// for point lookups, uniformly drawn announced prefixes and ASNs.
	zipfKeyed := func(c class) string {
		switch c {
		case clAddr:
			return addrPath(hotBlock().Addr(anyHost()))
		case clBlock:
			return blockPath(hotBlock())
		case clPrefix:
			return prefixPath(k.prefixes[rng.Intn(len(k.prefixes))])
		case clAS:
			return asPath(k.asns[rng.Intn(len(k.asns))])
		case clMovement:
			return "/v1/movement"
		default:
			return "/v1/summary"
		}
	}

	switch name {
	case "hot-read":
		pools := hotPools(rng, k, zipfKeyed)
		var zipfPool [numClasses]*rand.Zipf
		for c, p := range pools {
			if len(p) > 1 {
				zipfPool[c] = rand.NewZipf(rng, zipfS, zipfV, uint64(len(p)-1))
			}
			for _, path := range p {
				s.universe = append(s.universe, request{class: class(c), path: path, pin: -1})
			}
		}
		table := blendHot.table()
		for i := 0; i < n; i++ {
			c := table[rng.Intn(len(table))]
			j := 0
			if z := zipfPool[c]; z != nil {
				j = int(z.Uint64())
			}
			s.reqs = append(s.reqs, request{class: c, path: pools[c][j], pin: -1})
		}
	case "cold-read":
		table := blendCold.table()
		for i := 0; i < n; i++ {
			c := table[rng.Intn(len(table))]
			var path string
			switch c {
			case clAddr:
				path = addrPath(anyBlock().Addr(anyHost()))
			case clBlock:
				path = blockPath(anyBlock())
			case clPrefix:
				path = prefixPath(k.covering[rng.Intn(len(k.covering))])
			default:
				path = asPath(k.asns[rng.Intn(len(k.asns))])
			}
			s.reqs = append(s.reqs, request{class: c, path: path, pin: -1})
		}
	case "routed-read":
		table := blendRouted.table()
		for i := 0; i < n; i++ {
			c := table[rng.Intn(len(table))]
			s.reqs = append(s.reqs, request{class: c, path: zipfKeyed(c), pin: -1})
		}
	case "live-ingest":
		table := blendLive.table()
		for i := 0; i < n; i++ {
			c := table[rng.Intn(len(table))]
			r := request{class: c, path: zipfKeyed(c), pin: -1}
			switch u := rng.Float64(); {
			case u < 0.02:
				r = request{class: clDelta, path: "/v1/delta", pin: -1}
			case u < 0.12 && c != clMovement:
				r.pin = int8(rng.Intn(retainEpochs - pinMargin))
			}
			s.reqs = append(s.reqs, r)
		}
	default:
		panic("unknown workload " + name)
	}

	lines := make([]string, len(s.reqs))
	for i, r := range s.reqs {
		lines[i] = r.path
		if r.pin >= 0 {
			lines[i] = fmt.Sprintf("%s@-%d", r.path, r.pin)
		}
	}
	s.hash = fmt.Sprintf("%016x", hashLines(lines...))
	return s
}

// hotPools draws hot-read's fixed URL universe: one URL each for
// summary and movement, and the remaining hotURLs-2 split over addr,
// block, prefix and AS by the blend's weights (capped by how many
// distinct keys the world has). Within a pool, index 0 is the hottest.
func hotPools(rng *rand.Rand, k *keys, gen func(class) string) [numClasses][]string {
	var pools [numClasses][]string
	pools[clSummary] = []string{"/v1/summary"}
	pools[clMovement] = []string{"/v1/movement"}
	keyed := []class{clAddr, clBlock, clPrefix, clAS}
	limit := map[class]int{clAddr: len(k.blocks) * 256, clBlock: len(k.blocks), clPrefix: len(k.prefixes), clAS: len(k.asns)}
	total := 0
	for _, c := range keyed {
		total += blendHot[c]
	}
	for _, c := range keyed {
		want := (hotURLs - 2) * blendHot[c] / total
		// prefixes and ASNs may repeat in the world's lists, so the
		// draw is also bounded by attempts.
		if want > limit[c] {
			want = limit[c]
		}
		seen := make(map[string]bool, want)
		for tries := 0; len(pools[c]) < want && tries < 200*want; tries++ {
			if p := gen(c); !seen[p] {
				seen[p] = true
				pools[c] = append(pools[c], p)
			}
		}
	}
	return pools
}

// liveURL resolves a live-ingest request against the newest epoch the
// reader has seen. Pinned reads and deltas need history; before there
// is any they degrade to the live-epoch form of the same request (a
// delta to /v1/summary, as ipscope-loadgen does).
func liveURL(r request, newest uint64) string {
	switch {
	case r.class == clDelta && newest >= 2:
		return fmt.Sprintf("/v1/delta?from=%d&to=%d", newest-1, newest)
	case r.class == clDelta:
		return "/v1/summary"
	case r.pin >= 0 && newest > uint64(r.pin):
		return fmt.Sprintf("%s?epoch=%d", r.path, newest-uint64(r.pin))
	}
	return r.path
}
