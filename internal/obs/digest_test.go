package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// TestEncodedBytesStable is the byte-stability oracle for the dataset
// codec: the SHA-256 digest of obs.Write over the TinyConfig seed-5
// dataset, computed before the codec moved onto internal/binenc. A
// refactor that moves one encoded byte fails here. (An external test
// package, because sim imports obs.)
func TestEncodedBytesStable(t *testing.T) {
	wcfg := synthnet.TinyConfig()
	wcfg.Seed = 5
	res := sim.Run(synthnet.Generate(wcfg), sim.TinyConfig())
	var buf bytes.Buffer
	if err := obs.Write(&buf, &res.Data); err != nil {
		t.Fatal(err)
	}
	const want = "2f1baac9ca49e45c78fdd32cce1eab36ef76d7fa2ebf2a0ba36c32987c06021d"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("obs.Write: %d bytes, sha256 %s, want %s", buf.Len(), got, want)
	}
}
