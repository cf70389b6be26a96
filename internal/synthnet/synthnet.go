// Package synthnet generates the synthetic Internet that stands in for
// the proprietary vantage points of the paper (see DESIGN.md,
// "Substitutions"). A World is a deterministic function of a seed: a
// population of Autonomous Systems of different kinds, their routed
// prefixes and /24 blocks, each block's address-assignment policy and
// subscriber population, registry (RIR/country) attribution, reverse-DNS
// naming style and ICMP response behaviour.
//
// The world intentionally encodes the generative mechanisms the paper
// attributes activity patterns to (Section 5): static assignment,
// round-robin pools, long-lease and 24-hour-lease DHCP, gateways that
// aggregate thousands of devices, server farms and router
// infrastructure that never contact a CDN, and unused space.
package synthnet

import (
	"fmt"
	"math/rand"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
	"ipscope/internal/par"
	"ipscope/internal/rdns"
	"ipscope/internal/registry"
	"ipscope/internal/xrand"
)

// ASKind categorizes an Autonomous System's business.
type ASKind uint8

// AS kinds.
const (
	ResidentialISP ASKind = iota
	CellularISP
	University
	Enterprise
	Hoster
	Infrastructure
	numASKinds
)

// String returns the kind name.
func (k ASKind) String() string {
	switch k {
	case ResidentialISP:
		return "residential-isp"
	case CellularISP:
		return "cellular-isp"
	case University:
		return "university"
	case Enterprise:
		return "enterprise"
	case Hoster:
		return "hoster"
	case Infrastructure:
		return "infrastructure"
	}
	return "unknown"
}

// Policy is the address-assignment practice of one /24 block.
type Policy uint8

// Assignment policies. They map directly to the activity-pattern
// classes of the paper's Figure 6 plus non-client classes.
const (
	Unused            Policy = iota // allocated, routed, no hosts
	StaticSparse                    // static assignment, few subscribers (Fig 6a)
	StaticDense                     // static assignment, most addresses used
	DynamicRoundRobin               // pool cycles addresses daily (Fig 6b)
	DynamicLongLease                // DHCP with very long leases (Fig 6c)
	DynamicDaily                    // DHCP with 24h max lease (Fig 6d)
	Gateway                         // NAT/proxy gateways aggregating many devices
	ServerFarm                      // servers; no WWW-client activity
	BotFarm                         // WWW client bots: few IPs, heavy traffic
	InfraRouters                    // router infrastructure (traceroute-visible)
	numPolicies
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Unused:
		return "unused"
	case StaticSparse:
		return "static-sparse"
	case StaticDense:
		return "static-dense"
	case DynamicRoundRobin:
		return "dynamic-round-robin"
	case DynamicLongLease:
		return "dynamic-long-lease"
	case DynamicDaily:
		return "dynamic-daily"
	case Gateway:
		return "gateway"
	case ServerFarm:
		return "server-farm"
	case BotFarm:
		return "bot-farm"
	case InfraRouters:
		return "infra-routers"
	}
	return "unknown"
}

// IsDynamicPool reports whether the policy assigns addresses from a
// dynamic pool.
func (p Policy) IsDynamicPool() bool {
	return p == DynamicRoundRobin || p == DynamicLongLease || p == DynamicDaily
}

// IsClient reports whether the policy produces WWW-client activity
// visible to a CDN.
func (p Policy) IsClient() bool {
	switch p {
	case StaticSparse, StaticDense, DynamicRoundRobin, DynamicLongLease,
		DynamicDaily, Gateway, BotFarm:
		return true
	}
	return false
}

// AS is one Autonomous System.
type AS struct {
	Num      bgp.ASN
	Kind     ASKind
	Country  registry.Country
	RIR      registry.RIR
	Prefixes []ipv4.Prefix
}

// Block describes one /24 and everything the simulator needs to animate it.
type Block struct {
	Block       ipv4.Block
	AS          bgp.ASN
	Kind        ASKind
	Policy      Policy
	Subscribers int     // subscriber/host population served by the block
	Devices     int     // devices behind the block (≥ Subscribers for gateways)
	PingableP   float64 // probability an assigned address answers ICMP
	RDNS        rdns.NamingStyle
	Seed        uint64 // per-block deterministic stream seed
}

// World is a complete synthetic Internet.
type World struct {
	// Cfg is the (defaults-resolved) configuration the world was
	// generated from; Generate(w.Cfg) reproduces the world exactly,
	// which is how stored observation datasets regenerate their world.
	Cfg      Config
	Seed     uint64
	ASes     []*AS
	Blocks   []*Block
	ByBlock  map[ipv4.Block]int // index into Blocks
	ASIndex  map[bgp.ASN]*AS
	Registry *registry.Table
	// BaseRouting is the day-0 routing table; the simulator layers
	// change events on top of it.
	BaseRouting *bgp.Table
}

// Config controls world generation.
type Config struct {
	Seed uint64
	// NumASes is the number of Autonomous Systems to generate.
	NumASes int
	// MeanBlocksPerAS controls how much address space each AS holds.
	MeanBlocksPerAS int
}

// DefaultConfig returns a laptop-scale world: ~500 ASes, ~8k /24 blocks
// (≈2M addresses of capacity).
func DefaultConfig() Config {
	return Config{Seed: 1, NumASes: 500, MeanBlocksPerAS: 16}
}

// TinyConfig returns a unit-test-scale world.
func TinyConfig() Config {
	return Config{Seed: 1, NumASes: 40, MeanBlocksPerAS: 8}
}

var asKindWeights = []float64{
	ResidentialISP: 0.38,
	CellularISP:    0.12,
	University:     0.12,
	Enterprise:     0.18,
	Hoster:         0.12,
	Infrastructure: 0.08,
}

// policyWeights[kind] gives the block-policy mix for each AS kind.
var policyWeights = [numASKinds][numPolicies]float64{
	ResidentialISP: {Unused: 0.12, StaticSparse: 0.18, DynamicRoundRobin: 0.10,
		DynamicLongLease: 0.40, DynamicDaily: 0.15, Gateway: 0.05},
	CellularISP: {Unused: 0.15, DynamicDaily: 0.35, DynamicLongLease: 0.20,
		Gateway: 0.30},
	University: {Unused: 0.18, StaticSparse: 0.40, StaticDense: 0.12,
		DynamicRoundRobin: 0.30},
	Enterprise:     {Unused: 0.35, StaticSparse: 0.50, ServerFarm: 0.15},
	Hoster:         {Unused: 0.15, ServerFarm: 0.55, BotFarm: 0.30},
	Infrastructure: {Unused: 0.30, InfraRouters: 0.70},
}

// Generate builds a deterministic world from cfg.
func Generate(cfg Config) *World {
	if cfg.NumASes <= 0 {
		cfg.NumASes = DefaultConfig().NumASes
	}
	if cfg.MeanBlocksPerAS <= 0 {
		cfg.MeanBlocksPerAS = DefaultConfig().MeanBlocksPerAS
	}
	r := xrand.New(cfg.Seed, "synthnet")
	w := &World{
		Cfg:     cfg,
		Seed:    cfg.Seed,
		ByBlock: make(map[ipv4.Block]int),
		ASIndex: make(map[bgp.ASN]*AS),
	}

	countryWeights := make([]float64, len(registry.Countries))
	for i, c := range registry.Countries {
		countryWeights[i] = c.Weight
	}

	nextBlock := uint32(0x010000) // start allocating at 1.0.0.0/24
	var allocs []registry.Allocation
	routing := bgp.NewTable()

	for i := 0; i < cfg.NumASes; i++ {
		ci := registry.Countries[xrand.WeightedChoice(r, countryWeights)]
		kind := ASKind(xrand.WeightedChoice(r, asKindWeights))
		as := &AS{
			Num:     bgp.ASN(64500 + i),
			Kind:    kind,
			Country: ci.Code,
			RIR:     ci.RIR,
		}
		// Total /24 blocks for this AS: geometric-ish around the mean.
		nblocks := 1 + xrand.Poisson(r, float64(cfg.MeanBlocksPerAS-1))
		if nblocks > 4096 {
			nblocks = 4096
		}
		// Carve the run into routed prefixes of /24../20.
		remaining := nblocks
		for remaining > 0 {
			size := 1 << uint(r.Intn(5)) // 1,2,4,8,16 blocks => /24../20
			if size > remaining {
				size = remaining
			}
			// Round size down to a power of two for CIDR alignment.
			for size&(size-1) != 0 {
				size &= size - 1
			}
			// Align the start.
			for nextBlock%uint32(size) != 0 {
				nextBlock++
			}
			bits := 24
			for s := size; s > 1; s >>= 1 {
				bits--
			}
			p := ipv4.MustNewPrefix(ipv4.Block(nextBlock).First(), bits)
			as.Prefixes = append(as.Prefixes, p)
			routing.Insert(bgp.Route{Prefix: p, Origin: as.Num})
			allocs = append(allocs, registry.Allocation{
				Prefix: p, Country: as.Country, RIR: as.RIR,
			})
			for j := 0; j < size; j++ {
				blk := ipv4.Block(nextBlock + uint32(j))
				w.addBlock(blk, as, ci, r)
			}
			nextBlock += uint32(size)
			remaining -= size
		}
		w.ASes = append(w.ASes, as)
		w.ASIndex[as.Num] = as
	}
	// Per-block stream seeds are a pure hash of (world seed, block), so
	// they derive across a worker pool after the sequential topology
	// draws above; the result is identical for any worker count.
	par.ForEach(len(w.Blocks), 0, func(i int) {
		b := w.Blocks[i]
		b.Seed = xrand.Derive(w.Seed, fmt.Sprintf("block/%d", b.Block))
	})
	w.Registry = registry.NewTable(allocs)
	w.BaseRouting = routing
	return w
}

func (w *World) addBlock(blk ipv4.Block, as *AS, ci registry.CountryInfo, r *rand.Rand) {
	weights := policyWeights[as.Kind]
	pol := Policy(xrand.WeightedChoice(r, weights[:]))
	b := &Block{
		Block:  blk,
		AS:     as.Num,
		Kind:   as.Kind,
		Policy: pol,
		// Seed is derived in a parallel pass at the end of Generate.
	}
	switch pol {
	case Unused:
		b.Subscribers = 0
	case StaticSparse:
		b.Subscribers = 8 + r.Intn(72)
	case StaticDense:
		b.Subscribers = 150 + r.Intn(84)
	case DynamicRoundRobin:
		b.Subscribers = 20 + r.Intn(100) // underutilized pool
	case DynamicLongLease:
		b.Subscribers = 120 + r.Intn(120)
	case DynamicDaily:
		// A third of 24h-lease pools are heavily oversubscribed
		// (CGN-like), saturating the /24 every day — the population
		// behind the paper's 100%-STU cluster (Fig. 8c).
		if r.Float64() < 0.4 {
			b.Subscribers = 400 + r.Intn(400)
		} else {
			b.Subscribers = 160 + r.Intn(140)
		}
	case Gateway:
		b.Subscribers = 2 + r.Intn(7)
		b.Devices = 1000 + r.Intn(19000)
	case ServerFarm:
		b.Subscribers = 20 + r.Intn(180)
	case BotFarm:
		b.Subscribers = 1 + r.Intn(5)
	case InfraRouters:
		b.Subscribers = 4 + r.Intn(28)
	}
	if b.Devices == 0 {
		b.Devices = b.Subscribers
	}
	b.PingableP = pingableP(pol, ci.ICMPResponseRate, r)
	b.RDNS = rdnsStyle(pol, r)
	w.ByBlock[blk] = len(w.Blocks)
	w.Blocks = append(w.Blocks, b)
}

func pingableP(p Policy, countryRate float64, r *rand.Rand) float64 {
	switch p {
	case ServerFarm, InfraRouters:
		return 0.9 + r.Float64()*0.1
	case Gateway:
		return 0.8 + r.Float64()*0.15
	case Unused:
		return 0.02 * r.Float64() // the odd tarpit / middlebox
	default:
		// Residential CPE: country-level prior with per-block jitter.
		v := countryRate + (r.Float64()-0.5)*0.2
		if v < 0.05 {
			v = 0.05
		}
		if v > 0.95 {
			v = 0.95
		}
		return v
	}
}

func rdnsStyle(p Policy, r *rand.Rand) rdns.NamingStyle {
	switch {
	case p.IsDynamicPool():
		if r.Float64() < 0.75 {
			return rdns.StyleDynamic
		}
		return rdns.StyleGeneric
	case p == StaticSparse || p == StaticDense:
		if r.Float64() < 0.65 {
			return rdns.StyleStatic
		}
		return rdns.StyleGeneric
	case p == Unused:
		return rdns.StyleNone
	default:
		if r.Float64() < 0.5 {
			return rdns.StyleGeneric
		}
		return rdns.StyleNone
	}
}

// BlockInfo returns the block descriptor for blk, if it exists.
func (w *World) BlockInfo(blk ipv4.Block) (*Block, bool) {
	i, ok := w.ByBlock[blk]
	if !ok {
		return nil, false
	}
	return w.Blocks[i], true
}

// ASOf returns the origin AS of blk in the base routing table.
func (w *World) ASOf(blk ipv4.Block) bgp.ASN {
	if b, ok := w.BlockInfo(blk); ok {
		return b.AS
	}
	return 0
}

// NumBlocks returns the number of allocated /24 blocks.
func (w *World) NumBlocks() int { return len(w.Blocks) }

// RDNSZone returns the PTR zone for a block.
func (w *World) RDNSZone(b *Block) *rdns.Zone {
	return rdns.NewZone(b.Block, b.RDNS, "", 0.1, b.Seed)
}
