package cost

import (
	"math"
	"strings"
	"testing"

	"heterohpc/internal/platform"
)

func get(t *testing.T, name string) *platform.Platform {
	t.Helper()
	p, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Table II reproduces exactly from the billing formula: cost = time ×
// instances × rate / 3600.
func TestTableIICostFormula(t *testing.T) {
	ec2 := get(t, "ec2")
	full := ForPlatform(ec2)
	spotB, err := SpotForPlatform(ec2)
	if err != nil {
		t.Fatal(err)
	}
	// Rows of Table II: ranks, instances, full time/cost, mix time/cost.
	rows := []struct {
		ranks        int
		fullT, fullC float64
		mixT, mixC   float64
	}{
		{1, 4.83, 0.0032, 4.77, 0.0007},
		{8, 5.83, 0.0039, 5.78, 0.0009},
		{27, 7.28, 0.0097, 7.58, 0.0023},
		{64, 8.69, 0.0232, 8.82, 0.0053},
		{125, 21.65, 0.1155, 21.24, 0.0255},
		{216, 31.47, 0.2937, 31.47, 0.0661},
		{343, 66.34, 0.9729, 62.57, 0.2065},
		{512, 92.20, 1.9670, 94.52, 0.4537},
		{729, 127.76, 3.9179, 128.10, 0.8839},
		{1000, 162.09, 6.8077, 148.98, 1.4079},
	}
	for _, r := range rows {
		gotFull := full.PerIteration(r.fullT, r.ranks)
		if math.Abs(gotFull-r.fullC) > 0.0105*math.Max(r.fullC, 0.01) {
			t.Errorf("ranks %d: full cost %v, Table II says %v", r.ranks, gotFull, r.fullC)
		}
		gotMix := spotB.PerIteration(r.mixT, r.ranks)
		if math.Abs(gotMix-r.mixC) > 0.02*math.Max(r.mixC, 0.01) {
			t.Errorf("ranks %d: mix cost %v, Table II says %v", r.ranks, gotMix, r.mixC)
		}
	}
}

// coreHourRate is the dollars per core-hour a job of ranks ranks actually
// pays: higher than nominal when whole nodes are underfilled, the effect
// visible in the first points of Figures 6 and 7.
func coreHourRate(b Billing, ranks int) float64 { return b.JobCost(3600, ranks) / float64(ranks) }

// §VII-D: EC2 per-core rate is 15¢ for full instances and 3.375¢ for spot,
// rising when cores are left idle.
func TestEffectiveCoreRates(t *testing.T) {
	ec2 := get(t, "ec2")
	full := ForPlatform(ec2)
	if got := coreHourRate(full, 16); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("full 16-core rate %v, want 0.15", got)
	}
	spotB, _ := SpotForPlatform(ec2)
	if got := coreHourRate(spotB, 16); math.Abs(got-0.03375) > 1e-9 {
		t.Errorf("spot 16-core rate %v, want 0.03375", got)
	}
	// One rank still pays the whole node: 2.40/core-hour.
	if got := coreHourRate(full, 1); math.Abs(got-2.40) > 1e-9 {
		t.Errorf("1-core rate %v, want 2.40", got)
	}
	// Flat-rate platforms never inflate.
	puma := ForPlatform(get(t, "puma"))
	if got := coreHourRate(puma, 1); math.Abs(got-0.023) > 1e-12 {
		t.Errorf("puma rate %v", got)
	}
	if got := coreHourRate(puma, 100); math.Abs(got-0.023) > 1e-12 {
		t.Errorf("puma rate at 100 ranks %v", got)
	}
}

func TestJobCostEdgeCases(t *testing.T) {
	b := Billing{PerCoreHour: 1}
	if b.JobCost(-1, 4) != 0 || b.JobCost(10, 0) != 0 {
		t.Error("invalid inputs should cost 0")
	}
	if got := b.JobCost(1800, 2); got != 1 {
		t.Errorf("half hour on 2 cores at $1 = %v, want 1", got)
	}
}

// Whole-node billing charges every started node: 17 ranks on 16-core EC2
// instances pay for two.
func TestWholeNodeBillingRoundsUp(t *testing.T) {
	b := ForPlatform(get(t, "ec2"))
	for _, tc := range []struct {
		ranks int
		want  float64
	}{{1, 2.40}, {16, 2.40}, {17, 4.80}, {32, 4.80}, {33, 7.20}} {
		if got := b.JobCost(3600, tc.ranks); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("one hour on %d ranks = %v, want %v", tc.ranks, got, tc.want)
		}
	}
}

func TestSpotForPlatformErrors(t *testing.T) {
	if _, err := SpotForPlatform(get(t, "puma")); err == nil {
		t.Error("puma has no spot market")
	}
}

// Fig. 6/7 crossover precondition: at full nodes, EC2's on-demand per-core
// rate (15¢) must sit between ellipse (5¢) and lagrange (19.19¢), and spot
// (3.375¢) must undercut everything but puma's nominal estimate.
func TestPerCoreRateOrdering(t *testing.T) {
	ec2full := coreHourRate(ForPlatform(get(t, "ec2")), 16)
	ec2spot, _ := SpotForPlatform(get(t, "ec2"))
	spotRate := coreHourRate(ec2spot, 16)
	ellipse := coreHourRate(ForPlatform(get(t, "ellipse")), 16)
	lagrange := coreHourRate(ForPlatform(get(t, "lagrange")), 16)
	puma := coreHourRate(ForPlatform(get(t, "puma")), 16)
	if !(ellipse < ec2full && ec2full < lagrange) {
		t.Errorf("ordering broken: ellipse %v, ec2 %v, lagrange %v", ellipse, ec2full, lagrange)
	}
	if !(spotRate < ellipse && spotRate > puma) {
		t.Errorf("spot %v should undercut ellipse %v but not puma %v", spotRate, ellipse, puma)
	}
}

func TestLedgerSummarize(t *testing.T) {
	var l Ledger
	l.Add(LedgerEntry{Platform: "puma", App: "rd", Ranks: 8, Nodes: 2,
		RunSeconds: 3600, WaitSeconds: 7200, Dollars: 8 * 0.023})
	l.Add(LedgerEntry{Platform: "puma", App: "ns", Ranks: 4, Nodes: 1,
		RunSeconds: 1800, WaitSeconds: 1800, Dollars: 4 * 0.023 / 2})
	l.Add(LedgerEntry{Platform: "ec2", App: "rd", Ranks: 16, Nodes: 1,
		RunSeconds: 3600, WaitSeconds: 120, Dollars: 2.40})
	sums := l.Summarize()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	// Sorted by name: ec2 first.
	ec2, puma := sums[0], sums[1]
	if ec2.Platform != "ec2" || puma.Platform != "puma" {
		t.Fatalf("order wrong: %v %v", ec2.Platform, puma.Platform)
	}
	if ec2.CoreHours != 16 || math.Abs(ec2.DollarsPerCoreHour-0.15) > 1e-12 {
		t.Errorf("ec2 summary %+v", ec2)
	}
	if puma.Jobs != 2 || math.Abs(puma.CoreHours-10) > 1e-12 {
		t.Errorf("puma summary %+v", puma)
	}
	// puma waited (2+0.5)h over (1+0.5)h of running.
	if math.Abs(puma.WaitOverhead-2.5/1.5) > 1e-12 {
		t.Errorf("puma wait overhead %v", puma.WaitOverhead)
	}
	if ec2.WaitOverhead >= puma.WaitOverhead {
		t.Error("the cloud should have the lower wait overhead")
	}
	rep := l.Report()
	for _, want := range []string{"puma", "ec2", "$/core-h", "wait/run"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if len(l.entries) != 3 {
		t.Errorf("entries: %d", len(l.entries))
	}
}

func TestLedgerEmpty(t *testing.T) {
	var l Ledger
	if len(l.Summarize()) != 0 {
		t.Fatal("empty ledger has summaries")
	}
	if !strings.Contains(l.Report(), "platform") {
		t.Fatal("empty report missing header")
	}
}
