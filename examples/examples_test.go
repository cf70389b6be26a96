// Package examples has no code of its own: each directory under it is a
// runnable program, and this test runs every one of them.
package examples

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// examples pins the sha256 of each program's stdout. Every example is a
// pure function of its fixed seed, so a digest moves only when what the
// program prints does. After an intended change, take the new digest
// from `go run ./examples/NAME | sha256sum`.
var examples = []struct{ name, sha256 string }{
	{"quickstart", "3d113b5d29019f2b715ce9f659cbe780c73019a8c5fd876aa54280b218356c92"},
	{"churnaudit", "fdf257ae16a494bd08a918fb35f128616150e77c0f2214016d17ed594abad9d6"},
	{"demographics", "7bb15c2eeeb139949a7a305dbc274a81fa993b44e1c84d4b486aeefcbd647985"},
	{"reputation", "a3ef2f8719b9b09a0151d8c8892cf38df60f4404cf86a148711eae9e4a8b1ec2"},
	{"scannergap", "e98d1c2c90c925fdf60d83b4adbbe43c9b8824d89deb54fdd2f1d2811893c732"},
}

// bin holds the examples, built once for every -count iteration.
var bin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "ipscope-examples")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		for _, e := range examples {
			args = append(args, "./"+e.name)
		}
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building the examples:", err)
			return 1
		}
		bin = dir
		return m.Run()
	}())
}

// TestExamples runs each example and checks its stdout digest.
func TestExamples(t *testing.T) {
	for _, e := range examples {
		t.Run(e.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, e.name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != e.sha256 {
				t.Errorf("%s: stdout sha256 %s, want %s; output:\n%s", e.name, got, e.sha256, out)
			}
		})
	}
}
