package core

import (
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
)

func TestSummarize(t *testing.T) {
	blkA := ipv4.MustParseAddr("10.0.0.0").Block()
	blkB := ipv4.MustParseAddr("20.0.0.0").Block()
	s1 := ipv4.NewSet()
	s2 := ipv4.NewSet()
	for i := 0; i < 10; i++ {
		s1.Add(blkA.Addr(byte(i)))
	}
	for i := 5; i < 15; i++ {
		s2.Add(blkA.Addr(byte(i)))
	}
	for i := 0; i < 4; i++ {
		s2.Add(blkB.Addr(byte(i)))
	}
	asOf := func(b ipv4.Block) bgp.ASN {
		if b == blkA {
			return 1
		}
		return 2
	}
	sum := Summarize([]*ipv4.Set{s1, s2}, asOf)
	if sum.Snapshots != 2 {
		t.Errorf("snapshots = %d", sum.Snapshots)
	}
	if sum.TotalIPs != 19 || sum.AvgIPs != 12 {
		t.Errorf("IPs = %d/%d", sum.TotalIPs, sum.AvgIPs)
	}
	if sum.TotalBlocks != 2 || sum.AvgBlocks != 1 {
		t.Errorf("blocks = %d/%d", sum.TotalBlocks, sum.AvgBlocks)
	}
	if sum.TotalASes != 2 || sum.AvgASes != 1 {
		t.Errorf("ASes = %d/%d", sum.TotalASes, sum.AvgASes)
	}
	empty := Summarize(nil, asOf)
	if empty.TotalIPs != 0 {
		t.Error("empty summary")
	}
}
