package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestWidthSweepMonotone(t *testing.T) {
	widths := []int{8, 16, 24, 32, 48, 64}
	for sid := 1; sid <= 3; sid++ {
		points, err := WidthSweep(sid, widths)
		if err != nil {
			t.Fatalf("scenario %d: %v", sid, err)
		}
		if len(points) != len(widths) {
			t.Fatalf("scenario %d: %d points", sid, len(points))
		}
		for i := 1; i < len(points); i++ {
			if points[i].Gain < points[i-1].Gain-1e-12 {
				t.Errorf("scenario %d: gain fell from %.4f to %.4f at width %d",
					sid, points[i-1].Gain, points[i].Gain, points[i].Width)
			}
			if points[i].Coverage < points[i-1].Coverage-1e-12 {
				t.Errorf("scenario %d: coverage fell at width %d", sid, points[i].Width)
			}
		}
		// A 64-bit buffer holds most of each scenario's messages: coverage
		// approaches the all-messages ceiling.
		last := points[len(points)-1]
		if last.Coverage < 0.9 {
			t.Errorf("scenario %d: coverage at 64 bits = %.4f, want >= 0.9", sid, last.Coverage)
		}
	}
	if _, err := WidthSweep(9, widths); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// §5.4 quantified: SigSeT tops SRR, InfoGain tops coverage, and each loses
// badly on the other axis.
func TestSRRCrossover(t *testing.T) {
	rows, err := SRRCrossover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMethod := map[string]SRRRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	sig, ours := byMethod["SigSeT"], byMethod["InfoGain"]
	if sig.SRR <= ours.SRR {
		t.Errorf("SigSeT SRR %.2f should beat InfoGain SRR %.2f", sig.SRR, ours.SRR)
	}
	if ours.Coverage <= sig.Coverage {
		t.Errorf("InfoGain coverage %.4f should beat SigSeT coverage %.4f", ours.Coverage, sig.Coverage)
	}
	if sig.SRR < 2 {
		t.Errorf("SigSeT SRR = %.2f; the SRR-optimized selection should restore several states per traced bit", sig.SRR)
	}
	if ours.Coverage < 0.9 {
		t.Errorf("InfoGain coverage = %.4f", ours.Coverage)
	}
}

func TestRenderSweeps(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderWidthSweep(&buf, []int{16, 32}); err != nil {
		t.Fatal(err)
	}
	if err := RenderSRRCrossover(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Buffer-width sweep", "Scenario 3", "SRR vs flow-spec coverage", "InfoGain"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep rendering missing %q", want)
		}
	}
}

// The scalability claim: application-level selection is orders of
// magnitude cheaper than gate-level SRR selection, and SRR cost grows
// superlinearly with design size.
func TestScaling(t *testing.T) {
	rows, err := Scaling(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 3 app + 5 gate", len(rows))
	}
	var maxApp, minGate, firstGate, lastGate float64
	for _, r := range rows {
		sec := r.Elapsed.Seconds()
		switch r.Approach {
		case "app-level":
			if sec > maxApp {
				maxApp = sec
			}
		case "gate-level SRR":
			if minGate == 0 || sec < minGate {
				minGate = sec
			}
			if firstGate == 0 {
				firstGate = sec
			}
			lastGate = sec
		}
	}
	if minGate < maxApp*2 {
		t.Errorf("gate-level min %.4fs not clearly slower than app-level max %.4fs", minGate, maxApp)
	}
	if lastGate < firstGate*1.5 {
		t.Errorf("SRR cost grew only %.1fx from 64 to 1024 FFs; expected superlinear growth",
			lastGate/firstGate)
	}
}

// Shallow buffers fabricate evidence; deep enough buffers converge to the
// full-trace observation and keep the ground truth plausible.
func TestDepthStudy(t *testing.T) {
	depths := []int{4, 16, 64, 256}
	rows, err := DepthStudy(1, depths, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(depths) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Misclassified > rows[i-1].Misclassified {
			t.Errorf("misclassifications grew with depth: %d@%d -> %d@%d",
				rows[i-1].Misclassified, rows[i-1].Depth, rows[i].Misclassified, rows[i].Depth)
		}
	}
	shallow, deep := rows[0], rows[len(rows)-1]
	if shallow.Misclassified == 0 {
		t.Errorf("depth %d misclassified nothing; the window should fabricate evidence", shallow.Depth)
	}
	if deep.Misclassified != 0 {
		t.Errorf("depth %d still misclassifies %d messages", deep.Depth, deep.Misclassified)
	}
	if !deep.GroundTruthSurvives {
		t.Error("full-depth debugging lost the ground truth")
	}
	if _, err := DepthStudy(9, depths, seed); err == nil {
		t.Error("unknown case accepted")
	}
}
