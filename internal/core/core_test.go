package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"heterohpc/internal/fault"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/sched"
	"heterohpc/internal/vclock"
)

func TestNewTarget(t *testing.T) {
	for _, name := range []string{"puma", "ellipse", "lagrange", "ec2"} {
		tg, err := NewTarget(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tg.Platform.Name != name {
			t.Errorf("wrong platform %s", tg.Platform.Name)
		}
	}
	if _, err := NewTarget("bogus", 1); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestRunRDSmall(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	app, err := WeakRD(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tg.Run(JobSpec{Ranks: 8, App: app, SkipSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 8 || rep.Nodes != 2 {
		t.Errorf("geometry: %d ranks on %d nodes", rep.Ranks, rep.Nodes)
	}
	if rep.Iter.Steps != 2 {
		t.Errorf("kept %d steps, want 2", rep.Iter.Steps)
	}
	if rep.Iter.AvgAssembly <= 0 || rep.Iter.AvgPrecond <= 0 || rep.Iter.AvgSolve <= 0 {
		t.Errorf("phases must be positive: %+v", rep.Iter)
	}
	if rep.Iter.MaxTotal < rep.Iter.AvgAssembly+rep.Iter.AvgPrecond+rep.Iter.AvgSolve {
		t.Errorf("max total %v below sum of phase averages %+v", rep.Iter.MaxTotal, rep.Iter)
	}
	if rep.CostPerIter <= 0 {
		t.Errorf("cost %v", rep.CostPerIter)
	}
	if rep.SpotCostPerIter != 0 {
		t.Errorf("puma has no spot market, got %v", rep.SpotCostPerIter)
	}
	if rep.QueueWaitS <= 0 {
		t.Errorf("queue wait %v", rep.QueueWaitS)
	}
	if rep.Metrics["max_err"] > 1e-4 {
		t.Errorf("solution wrong: max_err %v", rep.Metrics["max_err"])
	}
}

func TestRunNSSmall(t *testing.T) {
	tg, _ := NewTarget("ec2", 1)
	app, err := WeakNS(8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tg.Run(JobSpec{Ranks: 8, App: app})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 1 { // 8 ranks fit one 16-core cc2.8xlarge
		t.Errorf("ns on ec2: %d nodes", rep.Nodes)
	}
	if rep.SpotCostPerIter <= 0 || rep.SpotCostPerIter >= rep.CostPerIter {
		t.Errorf("spot %v vs on-demand %v", rep.SpotCostPerIter, rep.CostPerIter)
	}
	if rep.Metrics["vel_l2_err"] > 0.5 {
		t.Errorf("velocity error %v", rep.Metrics["vel_l2_err"])
	}
}

// NS must cost more virtual time per iteration than RD at equal loading
// (§VII-C: "The Navier-Stokes test is more computationally demanding").
func TestNSHeavierThanRD(t *testing.T) {
	tg, _ := NewTarget("ec2", 1)
	rdApp, _ := WeakRD(8, 4, 2)
	nsApp, _ := WeakNS(8, 4, 2)
	rdRep, err := tg.Run(JobSpec{Ranks: 8, App: rdApp})
	if err != nil {
		t.Fatal(err)
	}
	nsRep, err := tg.Run(JobSpec{Ranks: 8, App: nsApp})
	if err != nil {
		t.Fatal(err)
	}
	if nsRep.Iter.MaxTotal <= rdRep.Iter.MaxTotal {
		t.Fatalf("NS iteration %v not heavier than RD %v",
			nsRep.Iter.MaxTotal, rdRep.Iter.MaxTotal)
	}
}

func TestSchedulingErrorsSurface(t *testing.T) {
	app, _ := WeakRD(216, 2, 1)
	tg, _ := NewTarget("puma", 1)
	_, err := tg.Run(JobSpec{Ranks: 216, App: app})
	if !errors.Is(err, sched.ErrTooLarge) {
		t.Errorf("puma 216 ranks: %v", err)
	}
	tg, _ = NewTarget("lagrange", 1)
	app512, _ := WeakRD(512, 2, 1)
	_, err = tg.Run(JobSpec{Ranks: 512, App: app512})
	if !errors.Is(err, sched.ErrIBVolumeCap) {
		t.Errorf("lagrange 512 ranks: %v", err)
	}
	tg, _ = NewTarget("ellipse", 1)
	app729, _ := WeakRD(729, 2, 1)
	_, err = tg.Run(JobSpec{Ranks: 729, App: app729})
	if !errors.Is(err, sched.ErrLaunchLimit) {
		t.Errorf("ellipse 729 ranks: %v", err)
	}
}

func TestGroupAssignmentValidated(t *testing.T) {
	tg, _ := NewTarget("ec2", 1)
	app, _ := WeakRD(8, 3, 1)
	if _, err := tg.Run(JobSpec{Ranks: 8, App: app, GroupOfNode: []int{0, 1}}); err == nil {
		t.Error("mismatched group list accepted (8 ranks = 1 ec2 node)")
	}
}

func TestWeakAppValidation(t *testing.T) {
	if _, err := WeakRD(7, 4, 1); err == nil {
		t.Error("non-cubic rank count accepted")
	}
	if _, err := WeakNS(10, 4, 1); err == nil {
		t.Error("non-cubic rank count accepted")
	}
	// An empty mesh is an error from both builders, not a panic.
	if _, err := WeakRD(8, 0, 1); err == nil {
		t.Error("WeakRD accepted 0 elements per rank")
	}
	if _, err := WeakNS(8, 0, 1); err == nil {
		t.Error("WeakNS accepted 0 elements per rank")
	}
}

func TestMemPerRankGB(t *testing.T) {
	if m := MemPerRankGB(20, 1); m <= 0 || m > 1 {
		t.Errorf("20³ scalar working set %v GB implausible", m)
	}
	if MemPerRankGB(20, 4) <= MemPerRankGB(20, 1) {
		t.Error("4-field problem must need more memory")
	}
}

type fakeApp struct {
	perRank func(rank int) []vclock.PhaseTimes
	fail    bool
}

func (f fakeApp) Name() string { return "fake" }
func (f fakeApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	if f.fail {
		return nil, nil, fmt.Errorf("deliberate failure")
	}
	return f.perRank(r.ID()), map[string]float64{"ok": 1}, nil
}

func TestAggregateStatistics(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	// Two ranks (one node), two steps; rank 1 is slower in solve.
	mk := func(a, s float64) vclock.PhaseTimes {
		var pt vclock.PhaseTimes
		pt.Compute[vclock.PhaseAssembly] = a
		pt.Compute[vclock.PhaseSolve] = s
		return pt
	}
	app := fakeApp{perRank: func(rank int) []vclock.PhaseTimes {
		if rank == 0 {
			return []vclock.PhaseTimes{mk(1, 2), mk(1, 2)}
		}
		return []vclock.PhaseTimes{mk(1, 4), mk(1, 4)}
	}}
	rep, err := tg.Run(JobSpec{Ranks: 2, App: app})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Iter.AvgAssembly-1) > 1e-12 {
		t.Errorf("avg assembly %v", rep.Iter.AvgAssembly)
	}
	if math.Abs(rep.Iter.AvgSolve-3) > 1e-12 {
		t.Errorf("avg solve %v, want mean(2,4)=3", rep.Iter.AvgSolve)
	}
	if math.Abs(rep.Iter.MaxTotal-5) > 1e-12 {
		t.Errorf("max total %v, want 5 (slow rank)", rep.Iter.MaxTotal)
	}
}

func TestAppFailurePropagates(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	if _, err := tg.Run(JobSpec{Ranks: 2, App: fakeApp{fail: true}}); err == nil {
		t.Error("app failure swallowed")
	}
	if _, err := tg.Run(JobSpec{Ranks: 2}); err == nil {
		t.Error("nil app accepted")
	}
}

func TestSkipStepsClamped(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	app := fakeApp{perRank: func(int) []vclock.PhaseTimes {
		var pt vclock.PhaseTimes
		pt.Compute[vclock.PhaseSolve] = 1
		return []vclock.PhaseTimes{pt, pt}
	}}
	rep, err := tg.Run(JobSpec{Ranks: 1, App: app, SkipSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iter.Steps != 1 {
		t.Errorf("kept %d steps; clamping should keep the last", rep.Iter.Steps)
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() *Report {
		tg, _ := NewTarget("ellipse", 7)
		app, _ := WeakRD(8, 3, 2)
		rep, err := tg.Run(JobSpec{Ranks: 8, App: app})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Iter.MaxTotal != b.Iter.MaxTotal || a.CostPerIter != b.CostPerIter ||
		a.QueueWaitS != b.QueueWaitS {
		t.Fatalf("reports not deterministic: %+v vs %+v", a.Iter, b.Iter)
	}
}

// TestSharedInternTableChangesNoByte: a sweep of RD jobs at P = 1, 8, 27
// and 64 and an NS pair, run on one target, whose later jobs adopt the
// shapes and frozen values its earlier ones built, writes the reports,
// journal and metrics it writes when each job runs on a target of its own.
// The fresh targets draw from one scheduler stream, as the shared one does.
func TestSharedInternTableChangesNoByte(t *testing.T) {
	type job struct {
		weak  func(ranks, perRankN, steps int) (App, error)
		ranks int
	}
	jobs := []job{{WeakRD, 1}, {WeakRD, 8}, {WeakRD, 27}, {WeakRD, 64}, {WeakNS, 8}, {WeakNS, 27}}
	sweep := func(targetFor func() *Target) []byte {
		var out bytes.Buffer
		run := obs.NewRun()
		for _, j := range jobs {
			app, err := j.weak(j.ranks, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := targetFor().Run(JobSpec{Ranks: j.ranks, App: app, SkipSteps: 1, Obs: run})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%+v\n", *rep)
		}
		if err := run.WriteJournal(&out); err != nil {
			t.Fatal(err)
		}
		if err := run.WriteMetrics(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	shared, err := NewTarget("ec2", 5)
	if err != nil {
		t.Fatal(err)
	}
	got := sweep(func() *Target { return shared })
	base, err := NewTarget("ec2", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep(func() *Target {
		return &Target{Platform: base.Platform, Sched: base.Sched, Billing: base.Billing}
	})
	t.Logf("%d bytes of reports, journal and metrics", len(got))
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("one target wrote %d bytes, fresh targets %d; first difference at byte %d:\n%.200s\nvs\n%.200s",
			len(got), len(want), i, got[i:], want[i:])
	}
}

// internApp is a job that interns one value per key on every rank and
// counts the builds per key, which the ranks of one job share.
type internApp struct {
	keys   []uint64
	builds map[uint64]*atomic.Int64
}

func (a internApp) Name() string { return "intern" }
func (a internApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	for _, key := range a.keys {
		n := a.builds[key]
		if _, err := r.Intern(key, func(any) bool { return true }, func() (any, error) {
			n.Add(1)
			return key, nil
		}); err != nil {
			return nil, nil, err
		}
	}
	return []vclock.PhaseTimes{{}}, nil, nil
}

// TestTargetPrunesInternsAfterEachJob: a target's jobs share its intern
// table, and each job's end prunes the table to what that job filed or
// adopted. A value the job before last built and the last job did not use
// is built again; the last job's values are adopted.
func TestTargetPrunesInternsAfterEachJob(t *testing.T) {
	tg, err := NewTarget("ec2", 1)
	if err != nil {
		t.Fatal(err)
	}
	builds := map[uint64]*atomic.Int64{1: {}, 2: {}}
	for _, keys := range [][]uint64{{1}, {1}, {2}, {1, 2}} {
		if _, err := tg.Run(JobSpec{Ranks: 8, App: internApp{keys, builds}}); err != nil {
			t.Fatal(err)
		}
	}
	// Key 1: built by the first job, adopted by the second, pruned after
	// the third, built again by the fourth. Key 2: built once, by the third.
	if b1, b2 := builds[1].Load(), builds[2].Load(); b1 != 2 || b2 != 1 {
		t.Errorf("builds per key: 1 → %d, 2 → %d; want 2 and 1", b1, b2)
	}
}

func TestRanksPerNodeOverride(t *testing.T) {
	tg, _ := NewTarget("ec2", 1)
	app, _ := WeakRD(8, 3, 2)
	dense, err := tg.Run(JobSpec{Ranks: 8, App: app})
	if err != nil {
		t.Fatal(err)
	}
	app2, _ := WeakRD(8, 3, 2)
	spread, err := tg.Run(JobSpec{Ranks: 8, App: app2, RanksPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Nodes != 1 || spread.Nodes != 8 {
		t.Fatalf("nodes: dense %d spread %d", dense.Nodes, spread.Nodes)
	}
	// Spreading across whole nodes multiplies the whole-node bill.
	if spread.CostPerIter <= dense.CostPerIter {
		t.Errorf("spread cost %v should exceed dense cost %v",
			spread.CostPerIter, dense.CostPerIter)
	}
	// Over-packing is rejected.
	app3, _ := WeakRD(8, 3, 1)
	if _, err := tg.Run(JobSpec{Ranks: 8, App: app3, RanksPerNode: 99}); err == nil {
		t.Error("ranks-per-node above cores accepted")
	}
	// Spreading beyond the machine is rejected.
	puma, _ := NewTarget("puma", 1)
	app4, _ := WeakRD(64, 3, 1)
	if _, err := puma.Run(JobSpec{Ranks: 64, App: app4, RanksPerNode: 1}); err == nil {
		t.Error("64 single-rank nodes on a 32-node machine accepted")
	}
}

// TestNegativeSkipRefusedBeforeRun: a negative SkipSteps is an error from
// Attempt and from ResumeAttempt, returned before any rank runs.
func TestNegativeSkipRefusedBeforeRun(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	var ran atomic.Bool
	app := fakeApp{perRank: func(int) []vclock.PhaseTimes {
		ran.Store(true)
		return make([]vclock.PhaseTimes, 2)
	}}
	if _, err := tg.Run(JobSpec{Ranks: 1, App: app, SkipSteps: -1}); err == nil || !strings.Contains(err.Error(), "SkipSteps -1") {
		t.Errorf("Run with SkipSteps -1 returned %v, want the negative skip refused", err)
	}
	topo, err := mp.BlockTopology(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tg.ResumeAttempt(w, app, -1, nil); err == nil || !strings.Contains(err.Error(), "SkipSteps -1") {
		t.Errorf("ResumeAttempt with skip -1 returned %v, want the negative skip refused", err)
	}
	if ran.Load() {
		t.Error("the application ran before the negative skip was refused")
	}
}

// An injected crash surfaces as an AttemptFailure wrapping mp.ErrRankDead,
// with the scheduled failure coordinates; Run wraps the same failure.
func TestAttemptReportsInjectedFault(t *testing.T) {
	tg, _ := NewTarget("puma", 1)
	app, err := WeakRD(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Ranks: 8, App: app,
		Faults: []fault.Event{{Kind: fault.KindCrash, Node: 1, At: 1e-4}}}
	rep, af, err := tg.Attempt(spec)
	if err != nil || rep != nil {
		t.Fatalf("Attempt = %v, %v; want a failure", rep, err)
	}
	if af == nil || !errors.Is(af, mp.ErrRankDead) {
		t.Fatalf("failure %+v does not wrap ErrRankDead", af)
	}
	if af.Node != 1 || af.At != 1e-4 {
		t.Errorf("failure coordinates %d@%v, want 1@1e-4", af.Node, af.At)
	}
	if af.ElapsedS < af.At {
		t.Errorf("elapsed %v below failure time %v", af.ElapsedS, af.At)
	}
	if _, err := tg.Run(spec); !errors.Is(err, mp.ErrRankDead) {
		t.Errorf("Run error = %v, want ErrRankDead", err)
	}
	// An event aimed at a node the world lacks is refused before launch.
	beyond := JobSpec{Ranks: 8, App: app,
		Faults: []fault.Event{{Kind: fault.KindCrash, Node: 99, At: 1e-4}}}
	if rep, af, err := tg.Attempt(beyond); err == nil || rep != nil || af != nil {
		t.Errorf("out-of-topology fault: Attempt = %v, %v, %v; want an error", rep, af, err)
	}
}

// ringApp charges each rank uneven compute, passes a value round a ring and
// takes a scalar maximum, step after step, until a fault stops it.
type ringApp struct{ steps int }

func (ringApp) Name() string { return "ring" }

func (a ringApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	p, id := r.Size(), r.ID()
	for i := 0; i < a.steps; i++ {
		r.ChargeCompute(float64(2e4*(1+(id+i)%3)), 0)
		mp.Send(r, (id+1)%p, 1, []float64{float64(i)})
		mp.Recv[float64](r, (id+p-1)%p, 1)
		r.AllreduceScalar(mp.OpMax, float64(id))
	}
	return nil, nil, nil
}

// TestAttemptElapsedIsReproducible repeats one killed attempt — 16 ranks on
// 4 nodes, node 2 crashing at 3 ms of virtual time — and requires the same
// ElapsedS every time, as its documentation promises.
func TestAttemptElapsedIsReproducible(t *testing.T) {
	tg, err := NewTarget("puma", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Ranks: 16, App: ringApp{steps: 1000},
		Faults: []fault.Event{{Kind: fault.KindCrash, Node: 2, At: 3e-3}}}
	var first float64
	for run := 0; run < 20; run++ {
		_, af, err := tg.Attempt(spec)
		if err != nil || af == nil || af.Node != 2 {
			t.Fatalf("run %d: attempt gave failure %+v, error %v; want node 2's crash", run, af, err)
		}
		if af.ElapsedS < af.At {
			t.Fatalf("run %d: elapsed %v below the failure time %v", run, af.ElapsedS, af.At)
		}
		if run == 0 {
			first = af.ElapsedS
		} else if af.ElapsedS != first {
			t.Fatalf("run %d: elapsed %v, run 0 %v", run, af.ElapsedS, first)
		}
	}
}
