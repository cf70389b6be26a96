package synthnet

import (
	"testing"

	"ipscope/internal/ipv4"
)

func TestWorldHelpers(t *testing.T) {
	w := Generate(TinyConfig())
	// ASOf for a known block and an unknown one.
	b := w.Blocks[0]
	if got := w.ASOf(b.Block); got != b.AS {
		t.Errorf("ASOf = %v, want %v", got, b.AS)
	}
	if got := w.ASOf(ipv4.Block(0xFFFFFF)); got != 0 {
		t.Errorf("ASOf(unknown) = %v, want 0", got)
	}
	if _, ok := w.BlockInfo(ipv4.Block(0xFFFFFF)); ok {
		t.Error("BlockInfo(unknown) should fail")
	}
}

func TestGenerateDefaultsOnZeroConfig(t *testing.T) {
	w := Generate(Config{Seed: 9})
	if len(w.ASes) != DefaultConfig().NumASes {
		t.Errorf("zero config ASes = %d", len(w.ASes))
	}
}

func TestPingablePByClass(t *testing.T) {
	w := Generate(DefaultConfig())
	// Servers and routers must be far more pingable than unused space.
	var serverSum, serverN, unusedSum, unusedN float64
	for _, b := range w.Blocks {
		switch b.Policy {
		case ServerFarm, InfraRouters:
			serverSum += b.PingableP
			serverN++
		case Unused:
			unusedSum += b.PingableP
			unusedN++
		}
	}
	if serverN == 0 || unusedN == 0 {
		t.Skip("classes missing")
	}
	if serverSum/serverN < 0.85 {
		t.Errorf("server pingable mean = %.2f", serverSum/serverN)
	}
	if unusedSum/unusedN > 0.05 {
		t.Errorf("unused pingable mean = %.2f", unusedSum/unusedN)
	}
}
