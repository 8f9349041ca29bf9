package bench

import (
	"strings"
	"testing"
)

// Small, fast options for tests.
func testOpts() Options {
	return Options{PerRankN: 3, Steps: 2, SkipSteps: 1, MaxRanks: 27, Seed: 7}
}

func TestRunWeakRD(t *testing.T) {
	s, err := RunWeak("rd", "ec2", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("got %d points", len(s.Points))
	}
	for _, pt := range s.Points {
		if pt.Err != nil {
			t.Fatalf("ranks %d failed: %v", pt.Ranks, pt.Err)
		}
		if pt.Report.Iter.MaxTotal <= 0 {
			t.Fatalf("ranks %d: no time", pt.Ranks)
		}
	}
	// Weak scaling on a network-bound platform must not get faster.
	if s.Points[2].Report.Iter.MaxTotal < s.Points[0].Report.Iter.MaxTotal {
		t.Fatal("weak-scaling time decreased with ranks")
	}
}

func TestRunWeakTruncatesAtPlatformLimit(t *testing.T) {
	o := testOpts()
	o.MaxRanks = 216
	s, err := RunWeak("rd", "puma", o)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Points[len(s.Points)-1]
	if last.Ranks != 216 || last.Err == nil {
		t.Fatalf("series should end with a failure at 216: %+v", last)
	}
	for _, pt := range s.Points[:len(s.Points)-1] {
		if pt.Err != nil {
			t.Fatalf("ranks %d unexpectedly failed: %v", pt.Ranks, pt.Err)
		}
	}
}

func TestRunWeakUnknownApp(t *testing.T) {
	if _, err := RunWeak("bogus", "ec2", testOpts()); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := RunWeak("rd", "bogus", testOpts()); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestRunWeakAllAndFormat(t *testing.T) {
	o := testOpts()
	o.MaxRanks = 8
	series, err := RunWeakAll("rd", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 || s.Points[0].Ranks != 1 || s.Points[1].Ranks != 8 {
			t.Fatalf("%s: MaxRanks 8 gave %d points, want ranks 1 and 8", s.Platform, len(s.Points))
		}
	}
	out := FormatWeak(series)
	for _, want := range []string{"puma", "ellipse", "lagrange", "ec2", "assembly", "solve"} {
		if !strings.Contains(out, want) {
			t.Errorf("weak table missing %q:\n%s", want, out)
		}
	}
	costs := FormatCost(series)
	if !strings.Contains(costs, "ec2 mix") {
		t.Errorf("cost table missing the ec2 mix column:\n%s", costs)
	}
}

func TestLagrangeFlattestAtScale(t *testing.T) {
	// The paper's headline: only lagrange (InfiniBand) maintains good weak
	// scaling. Compare growth factors t(27)/t(1) per platform.
	o := testOpts()
	growth := map[string]float64{}
	for _, p := range []string{"puma", "lagrange", "ec2"} {
		s, err := RunWeak("rd", p, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Points) < 3 || s.Points[2].Err != nil {
			t.Fatalf("%s has no 27-rank point", p)
		}
		growth[p] = s.Points[2].Report.Iter.MaxTotal / s.Points[0].Report.Iter.MaxTotal
	}
	if growth["lagrange"] >= growth["puma"] {
		t.Errorf("lagrange growth %v should beat puma %v", growth["lagrange"], growth["puma"])
	}
}

func TestRunPlacement(t *testing.T) {
	o := testOpts()
	res, err := RunPlacement(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Groups != 4 {
		t.Fatalf("rows %d groups %d", len(res.Rows), res.Groups)
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Fatalf("ranks %d: %v", row.Ranks, row.Err)
		}
		if row.FullCost <= row.MixEstCost {
			t.Errorf("ranks %d: full cost %v must exceed spot estimate %v",
				row.Ranks, row.FullCost, row.MixEstCost)
		}
		// The paper's finding: no performance benefit from the single
		// placement group — times agree within a few percent.
		ratio := row.MixTime / row.FullTime
		if ratio < 0.9 || ratio > 1.25 {
			t.Errorf("ranks %d: mix/full time ratio %v, want ≈1 (no placement-group benefit)",
				row.Ranks, ratio)
		}
	}
	out := FormatPlacement(res)
	for _, want := range []string{"Table II", "est. cost", "placement group"} {
		if !strings.Contains(out, want) {
			t.Errorf("placement table missing %q", want)
		}
	}
}

func TestFormatCapabilities(t *testing.T) {
	out := FormatCapabilities()
	for _, want := range []string{"Opteron", "Xeon", "IB 4X DDR", "10GbE", "user space",
		"root", "PBS", "SGE", "shell", "2.30¢/core-h", "$2.40/node-h"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFormatProvisioning(t *testing.T) {
	out, err := FormatProvisioning()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== puma ===", "=== ec2 ===", "trilinos", "man-hours",
		"boot partition resize"} {
		if !strings.Contains(out, want) {
			t.Errorf("provisioning report missing %q", want)
		}
	}
}

func TestFormatAvailability(t *testing.T) {
	out, err := FormatAvailability(testOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"puma", "ec2", "median"} {
		if !strings.Contains(out, want) {
			t.Errorf("availability table missing %q:\n%s", want, out)
		}
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.PerRankN != 10 || o.Steps != 3 || o.MaxRanks != 1000 || len(o.Platforms) != 4 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestCSVWeak(t *testing.T) {
	o := testOpts()
	o.MaxRanks = 216 // includes puma's failure row
	s, err := RunWeak("rd", "puma", o)
	if err != nil {
		t.Fatal(err)
	}
	csv := CSVWeak([]*Series{s})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Header + 5 ok rows (1..125) + 1 failure row (216).
	if len(lines) != 7 {
		t.Fatalf("got %d CSV lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "app,platform,ranks") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.Contains(lines[6], "exceeds machine size") {
		t.Fatalf("failure row missing: %q", lines[6])
	}
	for _, l := range lines[1:6] {
		if n := strings.Count(l, ","); n != 11 {
			t.Fatalf("row has %d commas: %q", n, l)
		}
	}
}

func TestCSVPlacement(t *testing.T) {
	res, err := RunPlacement(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	csv := CSVPlacement(res)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(res.Rows)+1 {
		t.Fatalf("got %d lines for %d rows", len(lines), len(res.Rows))
	}
	if !strings.HasPrefix(lines[0], "ranks,instances") {
		t.Fatalf("bad header %q", lines[0])
	}
}

// The entire pipeline is deterministic: two identical harness invocations
// render byte-identical tables.
func TestTablesBitDeterministic(t *testing.T) {
	render := func() (string, string) {
		o := testOpts()
		series, err := RunWeakAll("rd", o)
		if err != nil {
			t.Fatal(err)
		}
		return FormatWeak(series), FormatCost(series)
	}
	w1, c1 := render()
	w2, c2 := render()
	if w1 != w2 {
		t.Fatal("weak-scaling table not deterministic")
	}
	if c1 != c2 {
		t.Fatal("cost table not deterministic")
	}
}
