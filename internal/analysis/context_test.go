package analysis

import (
	"testing"

	"ipscope/internal/core"
)

func TestCDNMonthWithinWindow(t *testing.T) {
	ctx := sharedCtx(t)
	month := ctx.CDNMonth()
	window := ctx.Obs.DailyWindowUnion()
	if month.Len() == 0 {
		t.Fatal("empty CDN month")
	}
	// The month is a sub-window of the daily window.
	if month.DiffCount(window) != 0 {
		t.Error("CDN month contains addresses outside the daily window")
	}
	if month.Len() >= window.Len() {
		t.Error("CDN month should be a strict subset at this scale")
	}
}

func TestTrafficIterConsistent(t *testing.T) {
	ctx := sharedCtx(t)
	totalIPs, totalHits := 0, 0.0
	maxDays := 0
	ctx.TrafficIter()(func(tr core.IPTraffic) {
		totalIPs++
		totalHits += tr.Hits
		if tr.DaysActive > maxDays {
			maxDays = tr.DaysActive
		}
	})
	if totalIPs != ctx.Obs.DailyWindowUnion().Len() {
		t.Errorf("iterator yields %d IPs, union has %d",
			totalIPs, ctx.Obs.DailyWindowUnion().Len())
	}
	if maxDays > len(ctx.Obs.Daily) {
		t.Errorf("days active %d exceeds window %d", maxDays, len(ctx.Obs.Daily))
	}
	var want float64
	for _, v := range ctx.Obs.DailyTotalHits {
		want += v
	}
	if diff := totalHits - want; diff > want*1e-6 || diff < -want*1e-6 {
		t.Errorf("hits %f != daily totals %f", totalHits, want)
	}
}

func TestBlockFeaturesRanges(t *testing.T) {
	ctx := sharedCtx(t)
	feats := ctx.BlockFeatures()
	if len(feats) == 0 {
		t.Fatal("no features")
	}
	for _, f := range feats {
		if f.STU <= 0 || f.STU > 1 {
			t.Fatalf("STU out of range: %+v", f)
		}
		if f.Traffic < 0 || f.Hosts < 1 {
			t.Fatalf("bad feature: %+v", f)
		}
	}
}
