package core

import (
	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
)

// DatasetSummary is one row of Table 1: totals over the whole dataset
// and averages per snapshot, at address, /24 and AS granularity.
type DatasetSummary struct {
	Snapshots              int
	TotalIPs, AvgIPs       int
	TotalBlocks, AvgBlocks int
	TotalASes, AvgASes     int
}

// Summarize computes a DatasetSummary over snapshots (daily or weekly
// unions). asOf maps a /24 block to its origin AS (0 = unrouted, not
// counted).
func Summarize(snaps []*ipv4.Set, asOf func(ipv4.Block) bgp.ASN) DatasetSummary {
	var out DatasetSummary
	out.Snapshots = len(snaps)
	if len(snaps) == 0 {
		return out
	}
	union := ipv4.NewSet()
	asUnion := make(map[bgp.ASN]bool)
	var ipSum, blkSum, asSum int
	for _, s := range snaps {
		ipSum += s.Len()
		blkSum += s.NumBlocks()
		asSeen := make(map[bgp.ASN]bool)
		s.ForEachBlock(func(blk ipv4.Block, _ *ipv4.Bitmap256) {
			if as := asOf(blk); as != 0 {
				asSeen[as] = true
				asUnion[as] = true
			}
		})
		asSum += len(asSeen)
		union.UnionWith(s)
	}
	out.TotalIPs = union.Len()
	out.AvgIPs = ipSum / len(snaps)
	out.TotalBlocks = union.NumBlocks()
	out.AvgBlocks = blkSum / len(snaps)
	out.TotalASes = len(asUnion)
	out.AvgASes = asSum / len(snaps)
	return out
}
