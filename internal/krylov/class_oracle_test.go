package krylov_test

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"heterohpc/internal/bench"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// chargeLog records the charges made through it and passes them on to next
// (when not nil).
type chargeLog struct {
	next  sparse.Charger
	calls [][2]float64
}

func (l *chargeLog) ChargeCompute(flops, bytes float64) {
	l.calls = append(l.calls, [2]float64{flops, bytes})
	if l.next != nil {
		l.next.ChargeCompute(flops, bytes)
	}
}

// setupRec is what one Setup of a class ILU0 left: the run (the intern
// table's job) and rank it happened on, the operator, the rank's Setup
// count, the shape (its column array), the values' bits, and the factor
// Apply then reads.
type setupRec struct {
	run, rank, tag, setup int
	col                   *int
	val                   uint64
	lu                    *float64
	shared                bool
	cell                  any
}

// classOracle watches every ILU(0) that NewPrecond builds while it is
// installed: each gets a private twin, a NewILU0 over the same block, which
// sets up whenever it does. After every Setup the two factors must be equal
// bit for bit, and the charges made; before every Apply the factor read
// must still be the twin's.
type classOracle struct {
	t    *testing.T
	mu   sync.Mutex
	recs []setupRec
	errs atomic.Int32
	// before and after, when set, run on the rank around each Setup.
	before, after func(w *watched)
}

func (o *classOracle) errorf(format string, args ...any) {
	if o.errs.Add(1) <= 10 {
		o.t.Errorf(format, args...)
	}
}

func (o *classOracle) install() (restore func()) {
	return krylov.WrapClassILU0(func(dm *sparse.DistMatrix, p *krylov.ILU0) krylov.Preconditioner {
		w := &watched{o: o, run: int(dm.Rank().Job()), dm: dm, p: p}
		w.log.next = dm.Rank()
		krylov.SetCharger(p, &w.log)
		w.twin = krylov.NewILU0(dm.Local(), dm.NOwned(), &w.twinLog)
		return w
	})
}

type watched struct {
	o            *classOracle
	run          int
	dm           *sparse.DistMatrix
	p, twin      *krylov.ILU0
	log, twinLog chargeLog
	setups       int
	ok           bool // the last Setup succeeded
}

func (w *watched) Setup() error {
	w.setups++
	if w.o.before != nil {
		w.o.before(w)
	}
	w.log.calls, w.twinLog.calls = w.log.calls[:0], w.twinLog.calls[:0]
	err := w.p.Setup()
	if w.o.after != nil {
		w.o.after(w)
	}
	twinErr := w.twin.Setup()
	id, tag := w.dm.Rank().ID(), w.dm.Tag()
	if (err == nil) != (twinErr == nil) {
		w.o.errorf("run %d rank %d tag %d setup %d: error %v, private Setup's %v", w.run, id, tag, w.setups, err, twinErr)
	}
	if !sameCharges(w.log.calls, w.twinLog.calls) {
		w.o.errorf("run %d rank %d tag %d setup %d: charged %v, private Setup %v", w.run, id, tag, w.setups, w.log.calls, w.twinLog.calls)
	}
	w.ok = err == nil
	if !w.ok {
		return err
	}
	w.checkFactor("Setup")
	a := w.dm.Local()
	h := fnv.New64a()
	var b [8]byte
	for _, v := range a.Val {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	w.o.mu.Lock()
	w.o.recs = append(w.o.recs, setupRec{run: w.run, rank: id, tag: tag, setup: w.setups, col: &a.Col[0],
		val: h.Sum64(), lu: &krylov.Factor(w.p)[0], shared: krylov.Shared(w.p), cell: krylov.Cell(w.p)})
	w.o.mu.Unlock()
	return nil
}

func (w *watched) Apply(r, z []float64) {
	if w.ok {
		w.checkFactor("Apply")
	}
	w.p.Apply(r, z)
}

// checkFactor fails unless the factor w's ILU0 reads is its twin's bit for
// bit.
func (w *watched) checkFactor(at string) {
	got, want := krylov.Factor(w.p), krylov.Factor(w.twin)
	if !sparse.SameBits(got, want) {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				w.o.errorf("run %d rank %d tag %d setup %d, at %s: factor[%d] = %v, private factor %v",
					w.run, w.dm.Rank().ID(), w.dm.Tag(), w.setups, at, i, got[i], want[i])
				return
			}
		}
	}
}

func sameCharges(a, b [][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i][0]) != math.Float64bits(b[i][0]) || math.Float64bits(a[i][1]) != math.Float64bits(b[i][1]) {
			return false
		}
	}
	return true
}

// runWorld runs body on every rank of a fresh nranks-rank world that uses
// table, then prunes the table as core.Target does after a job.
func (o *classOracle) runWorld(nranks int, table *mp.InternTable, body func(r *mp.Rank) error) {
	t := o.t
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	w.UseInterns(table)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	table.Prune()
}

// round names the Setups of one operator that the ranks of one run make
// together.
type round struct{ run, tag, setup int }

// checkBuilds fails unless, in every round, the ranks read as many distinct
// factors as there are distinct (shape, values) pairs among them: one
// factorisation per class and operator. It returns the count per round.
func (o *classOracle) checkBuilds() map[round]int {
	type class struct {
		col *int
		val uint64
	}
	classes := map[round]map[class]bool{}
	factors := map[round]map[*float64]bool{}
	for _, r := range o.recs {
		k := round{r.run, r.tag, r.setup}
		if classes[k] == nil {
			classes[k], factors[k] = map[class]bool{}, map[*float64]bool{}
		}
		classes[k][class{r.col, r.val}] = true
		factors[k][r.lu] = true
	}
	if len(classes) == 0 {
		o.t.Fatal("no class ILU0 was set up")
	}
	builds := map[round]int{}
	for k, cl := range classes {
		if len(factors[k]) != len(cl) {
			o.t.Errorf("run %d tag %d setup %d: ranks read %d factors for %d distinct (class, operator) pairs",
				k.run, k.tag, k.setup, len(factors[k]), len(cl))
		}
		builds[k] = len(factors[k])
	}
	return builds
}

func rdRun(grid, steps int) func(r *mp.Rank) error {
	m := mesh.NewUnitCube(2 * grid)
	return func(r *mp.Rank) error {
		_, err := rd.Run(r, rd.Config{Mesh: m, Grid: [3]int{grid, grid, grid}, Steps: steps})
		return err
	}
}

// TestClassILU0MatchesPrivateFactor runs rd at P = 27 and 64 and nse at
// P = 8 and 27 with every ILU(0) watched (classOracle): on every rank and
// Setup the factor Apply reads is what a private NewILU0 makes of the
// rank's own values, bit for bit, with the same charges, and a class
// factorises once per operator and Setup. Pressure and velocity, which
// share a shape, never share a cell.
func TestClassILU0MatchesPrivateFactor(t *testing.T) {
	o := &classOracle{t: t}
	defer o.install()()
	var table mp.InternTable
	o.runWorld(27, &table, rdRun(3, 3))
	o.runWorld(64, &table, rdRun(4, 3))
	for _, grid := range []int{2, 3} {
		m := mesh.NewUnitCube(2 * grid)
		o.runWorld(grid*grid*grid, &table, func(r *mp.Rank) error {
			_, err := nse.Run(r, nse.Config{Mesh: m, Grid: [3]int{grid, grid, grid}, Steps: 3})
			return err
		})
	}
	builds := o.checkBuilds()

	// rd's 64 ranks fall into 27 position classes; every rank of rd at
	// P = 27 and of nse is a class of its own.
	for k, n := range builds {
		want := map[int]int{0: 27, 1: 27, 2: 8, 3: 27}[k.run]
		if n != want {
			t.Errorf("run %d tag %d setup %d: %d factors, want %d", k.run, k.tag, k.setup, n, want)
		}
	}
	cells := map[[2]int]any{} // (run, rank) -> the pressure cell
	for _, r := range o.recs {
		if r.tag == 2200 {
			cells[[2]int{r.run, r.rank}] = r.cell
		}
	}
	for _, r := range o.recs {
		if r.tag != 2600 {
			continue
		}
		pres, ok := cells[[2]int{r.run, r.rank}]
		if !ok || pres == nil || pres == r.cell {
			t.Errorf("run %d rank %d: velocity cell %p, pressure cell %p: want two cells", r.run, r.rank, r.cell, pres)
		}
	}
}

// TestClassILU0PerturbedRankFactorsPrivately perturbs one rank's values by
// one ulp at rd's second step at P = 64, after its class-mates have set up:
// it must factor privately, and they must still read the class factor.
func TestClassILU0PerturbedRankFactorsPrivately(t *testing.T) {
	const (
		nranks = 64
		odd    = 21 // block (1, 1, 1): an interior rank, in a class of 8
		step   = 2
	)
	o := &classOracle{t: t}
	defer o.install()()
	var others sync.WaitGroup
	others.Add(nranks - 1)
	// Setup does not communicate, so the odd rank waits for the others'
	// Setups alone.
	o.before = func(w *watched) {
		if w.setups == step && w.dm.Rank().ID() == odd {
			others.Wait()
			val := w.dm.Local().Val
			val[0] = math.Nextafter(val[0], math.Inf(1))
		}
	}
	o.after = func(w *watched) {
		if w.setups == step && w.dm.Rank().ID() != odd {
			others.Done()
		}
	}
	var table mp.InternTable
	o.runWorld(nranks, &table, rdRun(4, 3))
	o.checkBuilds()

	var oddRec *setupRec
	mates := 0
	for i, r := range o.recs {
		if r.setup == step && r.rank == odd {
			oddRec = &o.recs[i]
		}
	}
	if oddRec == nil {
		t.Fatal("the perturbed rank did not set up")
	}
	if oddRec.shared {
		t.Error("the perturbed rank reads its class cell's factor")
	}
	for _, r := range o.recs {
		if r.setup == step && r.rank != odd && r.col == oddRec.col {
			mates++
			if !r.shared {
				t.Errorf("rank %d, a class-mate of the perturbed rank, factored privately", r.rank)
			}
		}
	}
	if mates == 0 {
		t.Fatalf("rank %d has no class-mate", odd)
	}
}

// TestClassILU0RestartOnSameTable runs rd at P = 64 for three steps, then
// resumes it from its first step's state in a new world on the same intern
// table, as a supervised restart does: the new world's ranks find the
// first's cells, and every factor still matches its private twin.
func TestClassILU0RestartOnSameTable(t *testing.T) {
	const nranks = 64
	o := &classOracle{t: t}
	defer o.install()()
	m := mesh.NewUnitCube(8)
	cfg := rd.Config{Mesh: m, Grid: [3]int{4, 4, 4}, Steps: 3}
	saved := make([]rd.State, nranks)
	var table mp.InternTable
	o.runWorld(nranks, &table, func(r *mp.Rank) error {
		c := cfg
		c.Checkpoint = func(s rd.State) error {
			if s.StepsDone == 1 {
				saved[r.ID()] = rd.State{StepsDone: 1, Time: s.Time,
					U1: append([]float64(nil), s.U1...), U2: append([]float64(nil), s.U2...)}
			}
			return nil
		}
		_, err := rd.Run(r, c)
		return err
	})
	o.runWorld(nranks, &table, func(r *mp.Rank) error {
		c := cfg
		c.Resume = &saved[r.ID()]
		_, err := rd.Run(r, c)
		return err
	})
	o.checkBuilds()
	first := map[int]any{}
	for _, r := range o.recs {
		if r.run == 0 {
			first[r.rank] = r.cell
		}
	}
	for _, r := range o.recs {
		if r.run == 1 && r.cell != first[r.rank] {
			t.Errorf("rank %d: the resumed world made a cell of its own", r.rank)
		}
	}
}

// TestClassILU0SupervisedRecovery runs rd at P = 64 under a two-node
// reclamation wave with the restart and the migrate policy: every attempt,
// a relaunch on the same target or a continuation on a re-formed world,
// finds the cells the jobs before it filed, and every factor still matches.
func TestClassILU0SupervisedRecovery(t *testing.T) {
	for _, policy := range []string{bench.PolicyRestart, bench.PolicyMigrate} {
		t.Run(policy, func(t *testing.T) {
			o := &classOracle{t: t}
			defer o.install()()
			rep, err := bench.RunSupervised(bench.FaultOptions{App: "rd", Platform: "ec2", Ranks: 64,
				RanksPerNode: 8, PerRankN: 4, Steps: 6, Seed: 18, StormWave: 2, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempts < 2 {
				t.Fatalf("%d attempts: the wave interrupted nothing", rep.Attempts)
			}
			builds := o.checkBuilds()
			t.Logf("%d attempts, %d rounds of Setups", rep.Attempts, len(builds))
		})
	}
}
