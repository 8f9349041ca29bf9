package heterohpc

// End-to-end integration tests asserting the paper's headline findings on
// reduced workloads. These are the "shape" checks of DESIGN.md §4: who
// wins, in which direction the trade-offs point, and where the platforms
// fail — not absolute numbers.

import (
	"errors"
	"math"
	"testing"

	"heterohpc/internal/bench"
	"heterohpc/internal/core"
	"heterohpc/internal/sched"
	"heterohpc/internal/spot"
)

func testOpts() bench.Options {
	return bench.Options{PerRankN: 4, Steps: 2, SkipSteps: 1, MaxRanks: 64, Seed: 2012}
}

// §VII-A: each platform's weak-scaling series ends exactly where the
// paper's did.
func TestSeriesTruncationMatchesPaper(t *testing.T) {
	o := testOpts()
	o.MaxRanks = 1000
	o.PerRankN = 2
	o.Steps = 1
	wantLast := map[string]int{"puma": 125, "ellipse": 512, "lagrange": 343, "ec2": 1000}
	wantErr := map[string]error{
		"puma":     sched.ErrTooLarge,
		"ellipse":  sched.ErrLaunchLimit,
		"lagrange": sched.ErrIBVolumeCap,
	}
	for platform, lastOK := range wantLast {
		s, err := bench.RunWeak("rd", platform, o)
		if err != nil {
			t.Fatalf("%s: %v", platform, err)
		}
		var lastGood int
		for _, pt := range s.Points {
			if pt.Err == nil {
				lastGood = pt.Ranks
			} else if want := wantErr[platform]; want != nil && !errors.Is(pt.Err, want) {
				t.Errorf("%s failed with %v, want %v", platform, pt.Err, want)
			}
		}
		if lastGood != lastOK {
			t.Errorf("%s ran up to %d ranks, paper reports %d", platform, lastGood, lastOK)
		}
	}
}

// §VII-A / Figure 4: at scale, the InfiniBand machine keeps the flattest
// weak-scaling curve and the 1GbE machines the steepest.
func TestInterconnectOrderingAtScale(t *testing.T) {
	o := testOpts()
	growth := map[string]float64{}
	for _, p := range []string{"puma", "lagrange", "ec2"} {
		s, err := bench.RunWeak("rd", p, o)
		if err != nil {
			t.Fatal(err)
		}
		first := s.Points[0].Report.Iter.MaxTotal
		last := s.Points[len(s.Points)-1]
		if last.Err != nil {
			t.Fatalf("%s truncated unexpectedly: %v", p, last.Err)
		}
		growth[p] = last.Report.Iter.MaxTotal / first
	}
	if growth["lagrange"] >= growth["puma"] {
		t.Errorf("lagrange growth %.2f should undercut puma %.2f",
			growth["lagrange"], growth["puma"])
	}
	if growth["lagrange"] >= growth["ec2"] {
		t.Errorf("lagrange growth %.2f should undercut ec2 %.2f",
			growth["lagrange"], growth["ec2"])
	}
}

// §VII-D / Figure 7: for the compute-heavy NS application at small scale,
// EC2 beats the on-premise Opteron clusters on time ("EC2 costs less than
// our on-premise cluster and is faster as well" — cost per core-hour
// nominal rates differ, but the speed ordering must hold).
func TestEC2FasterThanOpteronsOnNS(t *testing.T) {
	const ranks = 8
	times := map[string]float64{}
	for _, name := range []string{"puma", "ellipse", "ec2"} {
		tg, err := core.NewTarget(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		app, err := core.WeakNS(ranks, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tg.Run(core.JobSpec{Ranks: ranks, App: app, SkipSteps: 1})
		if err != nil {
			t.Fatal(err)
		}
		times[name] = rep.Iter.MaxTotal
	}
	if times["ec2"] >= times["puma"] || times["ec2"] >= times["ellipse"] {
		t.Errorf("ec2 (%v) should be faster than puma (%v) and ellipse (%v) on NS at small scale",
			times["ec2"], times["puma"], times["ellipse"])
	}
}

// Table II: the placement group buys no performance but costs ≈4.4× spot.
func TestPlacementGroupFinding(t *testing.T) {
	res, err := bench.RunPlacement(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Fatalf("ranks %d: %v", row.Ranks, row.Err)
		}
		speedup := row.MixTime / row.FullTime
		if speedup < 0.85 || speedup > 1.3 {
			t.Errorf("ranks %d: placement-group time ratio %v, want ≈1", row.Ranks, speedup)
		}
		costRatio := row.FullCost / row.MixEstCost * (row.MixTime / row.FullTime)
		if math.Abs(costRatio-2.40/0.54) > 0.01 {
			t.Errorf("ranks %d: price ratio %v, want %v", row.Ranks, costRatio, 2.40/0.54)
		}
	}
}

// §VIII: the spot market never yields the full 63-host fleet, forcing the
// mixed assembly.
func TestSpotNeverFills63(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		m := spot.NewMarket(seed, 2.40)
		a, err := m.AcquireMix(63, 2.40, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if a.SpotCount() >= 63 {
			t.Fatalf("seed %d assembled a full spot fleet", seed)
		}
		if len(a.Nodes) != 63 {
			t.Fatalf("seed %d: fleet incomplete", seed)
		}
	}
}

// Verification is not optional: both applications check against exact
// solutions on every platform model.
func TestAllPlatformsProduceCorrectSolutions(t *testing.T) {
	for _, name := range []string{"puma", "ellipse", "lagrange", "ec2"} {
		tg, err := core.NewTarget(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		app, err := core.WeakRD(8, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tg.Run(core.JobSpec{Ranks: 8, App: app})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Metrics["max_err"] > 1e-4 {
			t.Errorf("%s produced max error %v", name, rep.Metrics["max_err"])
		}
	}
}
