package sigsel

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/circuits"
	"tracescale/internal/netlist"
	"tracescale/internal/usb"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderSigSeTGolden lists SigSeT's selections, in selection order, for
// the USB design at every seed paperbench -all renders (Table 4's 32-bit
// budget and 48-cycle default) and for the generated circuits of the
// scaling study (budget 16, 32 cycles, seed 1).
func renderSigSeTGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	line := func(label string, n *netlist.Netlist, sel []int) {
		names := make([]string, len(sel))
		for i, id := range sel {
			names[i] = n.Name(id)
		}
		fmt.Fprintf(&buf, "%s: %s\n", label, strings.Join(names, " "))
	}
	n := usb.Design()
	for seed := int64(1); seed <= 4; seed++ {
		sel, err := SigSeT(n, SigSeTConfig{Budget: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("usb seed=%d budget=32", seed), n, sel)
	}
	for _, ffs := range []int{64, 128, 256} {
		g, err := circuits.Generate(circuits.Params{FFs: ffs, ShiftFraction: 0.5}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		sel, err := SigSeT(g, SigSeTConfig{Budget: 16, Cycles: 32, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("generated ffs=%d budget=16 cycles=32", ffs), g, sel)
	}
	return buf.Bytes()
}

// SigSeT's selections are pinned byte for byte: a change to the
// restoration engine or the lazy greedy that alters any pick shows up
// here. Regenerate deliberately with
// `go test ./internal/sigsel -run Golden -update`.
func TestSigSeTGolden(t *testing.T) {
	got := renderSigSeTGolden(t)
	path := filepath.Join("testdata", "sigset.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SigSeT selections drifted (re-run with -update if intentional):\n got:\n%s\nwant:\n%s", got, want)
	}
}
