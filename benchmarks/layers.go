package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/core"
	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/platform"
	"heterohpc/internal/rd"
	"heterohpc/internal/sparse"
	"heterohpc/internal/triage"
	"heterohpc/internal/vclock"
)

// The layer drivers call each module's public functions directly, at the
// sizes the workloads use them, and time the calls from outside. They do
// not depend on the workload: one child process runs them all.

// layerResults maps a per-layer metric name to the summary of its samples,
// already in the metric's unit.
type layerResults map[string]summary

// add records samples given in seconds per call, scaled into the metric's
// unit (1e9/nnz for ns per nonzero, and so on). Ranks other than 0 hand in
// nil and record nothing.
func (l layerResults) add(name string, scale float64, secs []float64) {
	if secs == nil {
		return
	}
	v := make([]float64, len(secs))
	for i, s := range secs {
		v[i] = s * scale
	}
	l[name] = summarize(v)
}

func (l layerResults) set(name string, v float64) {
	l[name] = summary{Median: v, Q1: v, Q3: v, N: 1}
}

// ec2World builds a p-rank world the way core.Target does for the ec2
// platform: dense packing, the platform's fabric and compute rater.
func ec2World(p int) (*mp.World, error) {
	plat, err := platform.Get("ec2")
	if err != nil {
		return nil, err
	}
	topo, err := mp.BlockTopology(p, plat.CoresPerNode())
	if err != nil {
		return nil, err
	}
	scale := plat.CommScale
	if scale == 0 {
		scale = 1
	}
	fab, err := netmodel.NewFabricScaled(plat.Net, topo.NNodes(), scale)
	if err != nil {
		return nil, err
	}
	return mp.NewWorld(topo, fab, plat.Rater)
}

// rankBench is a driver body's handle inside a world. Rank 0 holds the
// stopwatch; every helper ends with all ranks at the same point.
type rankBench struct {
	r *mp.Rank
}

// local times an op only rank 0 runs; the others wait at the barrier.
func (b rankBench) local(k int, op func()) []float64 {
	var secs []float64
	if b.r.ID() == 0 {
		secs = sample(k, op)
	}
	b.r.Barrier()
	return secs
}

// collective times rounds of k calls that all ranks make together. After
// each round rank 0 broadcasts whether the sample rule asks for another.
func (b rankBench) collective(k int, op func()) []float64 {
	var secs []float64
	var total time.Duration
	for {
		b.r.Barrier()
		t0 := time.Now()
		for i := 0; i < k; i++ {
			op()
		}
		d := time.Since(t0)
		more := 0.0
		if b.r.ID() == 0 {
			total += d
			secs = append(secs, d.Seconds()/float64(k))
			if len(secs) < minSamples || total < minSampleTime {
				more = 1
			}
		}
		if b.r.Bcast(0, []float64{more})[0] == 0 {
			return secs
		}
	}
}

func runLayerDrivers() (layerResults, error) {
	out := layerResults{}
	for _, d := range []func(layerResults) error{
		driveMP, driveNumerics, driveHaloWide, driveCheckpoint, driveJournal, driveModels, driveSpMVBig, driveCleanJob,
	} {
		if err := d(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driveMP measures the message layer alone: paired 1 KiB exchanges, the
// scalar allreduce CG issues twice per iteration, a barrier, and the cost
// of spawning a world.
func driveMP(out layerResults) error {
	allreduce := func(name string) func(rankBench) {
		return func(b rankBench) {
			out.add(name, 1e6, b.collective(20, func() { b.r.AllreduceScalar(mp.OpSum, 1) }))
		}
	}
	stages := []struct {
		p    int
		body func(b rankBench)
	}{
		{64, func(b rankBench) {
			kib := make([]float64, 128)
			peer := b.r.ID() ^ 1
			out.add("mp.sendrecv_ns", 1e9, b.collective(200, func() { b.r.SendRecvF64(peer, 7, kib) }))
		}},
		{8, allreduce("mp.allreduce_us_p8")},
		{64, allreduce("mp.allreduce_us_p64")},
		{512, func(b rankBench) {
			allreduce("mp.allreduce_us_p512")(b)
			out.add("mp.barrier_us_p512", 1e6, b.collective(20, b.r.Barrier))
		}},
	}
	inWorld := func(p int, body func(b rankBench)) error {
		w, err := ec2World(p)
		if err != nil {
			return err
		}
		return w.Run(func(r *mp.Rank) error {
			body(rankBench{r})
			return nil
		})
	}
	for _, st := range stages {
		if err := inWorld(st.p, st.body); err != nil {
			return err
		}
	}
	const spawnP = 1000
	var err error
	out.add("mp.world_spawn_us_per_rank", 1e6/spawnP, sample(1, func() {
		if e := inWorld(spawnP, func(rankBench) {}); e != nil {
			err = e
		}
	}))
	return err
}

// rdSystem assembles the RD system matrix (mass + stiffness at the first
// step's coefficients) over a block-decomposed unit cube: the operator
// every RD solve of the workloads applies.
type rdSystem struct {
	s    *fem.Space
	coo  sparse.COO
	elem func(e int, out *[8][8]float64)
	dm   *sparse.DistMatrix
}

func newRDSystem(r *mp.Rank, m *mesh.Mesh, p int) (*rdSystem, error) {
	s, err := fem.NewSpaceBlock(r, m, p, p, p, 1000)
	if err != nil {
		return nil, err
	}
	sys := &rdSystem{s: s}
	const dt, t = 0.05, 1.1
	sys.elem = func(e int, out *[8][8]float64) {
		var ke [8][8]float64
		s.El.Mass(3/(2*dt)-2/t, out, r)
		s.El.Stiffness(1/(t*t), &ke, r)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				out[a][b] += ke[a][b]
			}
		}
	}
	s.AssembleMatrix(&sys.coo, sys.elem)
	sys.dm, err = sparse.NewDistMatrix(r, s.RowMap, &sys.coo, s.Owner, 1200)
	return sys, err
}

// timedSystem and timedPrecond are the krylov.System and Preconditioner
// decorators that make a solver's children visible: what is left of the
// solve after them is the Krylov loop's own time.
type timedSystem struct {
	krylov.System
	child *time.Duration
}

func (t timedSystem) Apply(x, y []float64) {
	t0 := time.Now()
	t.System.Apply(x, y)
	*t.child += time.Since(t0)
}

func (t timedSystem) AllSum(v float64) float64 {
	t0 := time.Now()
	sum := t.System.AllSum(v)
	*t.child += time.Since(t0)
	return sum
}

type timedPrecond struct {
	krylov.Preconditioner
	child *time.Duration
}

func (t timedPrecond) Apply(r, z []float64) {
	t0 := time.Now()
	t.Preconditioner.Apply(r, z)
	*t.child += time.Since(t0)
}

// driveNumerics measures mesh, fem, sparse and krylov on 27 ranks of 10³
// elements — the third point of rd-weak and the per-rank size of its top
// point. The per-rank block is cache-resident (about 0.4 MB of CSR), so
// the SpMV and ILU(0) figures here are compute-bound; driveSpMVBig gives
// the memory-bound one.
func driveNumerics(out layerResults) error {
	const p, n = 3, 10
	const elems = n * n * n
	m := mesh.NewUnitCube(n * p)
	w, err := ec2World(p * p * p)
	if err != nil {
		return err
	}
	return w.Run(func(r *mp.Rank) error {
		b := rankBench{r}
		var err error
		keep := func(e error) {
			if err == nil {
				err = e
			}
		}
		out.add("mesh.build_ns_per_elem", 1e9/elems, b.local(1, func() {
			_, e := mesh.NewLocalFromBlock(m, p, p, p, 0)
			keep(e)
		}))
		out.add("fem.space_build_us_per_rank", 1e6, b.collective(1, func() {
			_, e := fem.NewSpaceBlock(r, m, p, p, p, 900)
			keep(e)
		}))
		sys, e := newRDSystem(r, m, p)
		if keep(e); err != nil {
			return err
		}
		s, dm := sys.s, sys.dm
		var scratch sparse.COO
		out.add("fem.assemble_ns_per_elem", 1e9/elems, b.local(1, func() { s.AssembleMatrix(&scratch, sys.elem) }))
		out.add("fem.reassemble_ns_per_elem", 1e9/elems, b.local(1, func() { s.AssembleMatrixValues(&sys.coo, sys.elem) }))
		load := make([]float64, s.NOwned())
		out.add("fem.vector_ns_per_elem", 1e9/elems, b.collective(1, func() {
			s.AssembleVector(load, func(e int, o *[8]float64) {
				s.El.Load(func(x, y, z float64) float64 { return rd.Source }, s.ElemCorner(e), o, r)
			})
		}))

		// The build synchronises the whole world (a census allreduce), so
		// rank 0 times all 27 builds: put it over the world's nonzeros.
		// Everything else here waits for neighbours at most and goes over
		// rank 0's own.
		nnz := float64(dm.Local().NNZ())
		out.add("sparse.build_ns_per_nnz", 1e9/dm.AllSum(nnz), b.collective(1, func() {
			_, e := sparse.NewDistMatrix(r, s.RowMap, &sys.coo, s.Owner, 1300)
			keep(e)
		}))
		out.add("sparse.refill_ns_per_nnz", 1e9/nnz, b.collective(1, func() { dm.SetValues(&sys.coo) }))
		x := make([]float64, dm.NCols())
		y := make([]float64, dm.NOwned())
		for i := range x {
			x[i] = math.Sin(float64(i))
		}
		out.add("sparse.spmv_ns_per_nnz", 1e9/nnz, b.local(10, func() { dm.Local().MulVec(x, y, r) }))
		out.add("sparse.apply_us_p27", 1e6, b.collective(10, func() { dm.Apply(x, y) }))
		out.add("sparse.halo_us_p27", 1e6, b.collective(10, func() { dm.Importer().Exchange(x) }))

		pc := krylov.NewILU0(dm.Local(), dm.NOwned(), r)
		keep(pc.Setup())
		out.add("krylov.ilu0_setup_ns_per_nnz", 1e9/nnz, b.local(1, func() { keep(pc.Setup()) }))
		z := make([]float64, dm.NOwned())
		out.add("krylov.ilu0_apply_ns_per_nnz", 1e9/nnz, b.local(10, func() { pc.Apply(y, z) }))
		if err != nil {
			return err
		}

		// One right-hand side for all three solvers, at the applications'
		// tolerance, from a zero start so every solve does the same work.
		rhs := make([]float64, dm.NOwned())
		dm.Apply(x, rhs)
		sol := make([]float64, dm.NOwned())
		opt := krylov.Options{Tol: 1e-8, Work: &krylov.Workspace{}}
		type solver func(krylov.System, krylov.Preconditioner, []float64, []float64, krylov.Options) (krylov.Result, error)
		var iters int
		solve := func(f solver, a krylov.System, pre krylov.Preconditioner) func() {
			return func() {
				for i := range sol {
					sol[i] = 0
				}
				res, e := f(a, pre, rhs, sol, opt)
				if e == nil && !res.Converged {
					e = fmt.Errorf("layers: solver stalled at residual %g", res.Residual)
				}
				keep(e)
				iters = res.Iterations
			}
		}
		perIter := func(name string, f solver) {
			secs := b.collective(1, solve(f, dm, pc))
			if iters > 0 {
				out.add(name, 1e6/float64(iters), secs)
			}
		}
		perIter("krylov.cg_us_per_iter", krylov.CG)
		if r.ID() == 0 {
			out.set("krylov.cg_iters", float64(iters))
		}
		perIter("krylov.bicgstab_us_per_iter", krylov.BiCGStab)
		perIter("krylov.gmres_us_per_iter", krylov.GMRES)

		var child time.Duration
		whole := b.collective(1, solve(krylov.CG, timedSystem{dm, &child}, timedPrecond{pc, &child}))
		if r.ID() == 0 {
			var total float64
			for _, s := range whole {
				total += s
			}
			out.set("krylov.cg_self_frac", 1-child.Seconds()/total)
		}

		// Process-wide mallocs over warm solves, as the repository's
		// zero-alloc test counts them: one allocation on any rank shows.
		const solves = 5
		var before, after runtime.MemStats
		cg := solve(krylov.CG, dm, pc)
		cg() // the workspace last served GMRES; let CG reshape it first
		if r.ID() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		r.Barrier()
		for i := 0; i < solves; i++ {
			cg()
		}
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&after)
			out.set("krylov.steady_allocs", math.Floor(float64(after.Mallocs-before.Mallocs)/solves))
		}
		return err
	})
}

// driveHaloWide is the ghost exchange at rd-wide's shape: 1000 ranks of 2³
// elements, where the exchange is all goroutine hand-off and no data.
func driveHaloWide(out layerResults) error {
	const p, n = 10, 2
	m := mesh.NewUnitCube(n * p)
	w, err := ec2World(p * p * p)
	if err != nil {
		return err
	}
	return w.Run(func(r *mp.Rank) error {
		sys, err := newRDSystem(r, m, p)
		if err != nil {
			return err
		}
		x := make([]float64, sys.dm.NCols())
		out.add("sparse.halo_us_p1000", 1e6, rankBench{r}.collective(5, func() { sys.dm.Importer().Exchange(x) }))
		return nil
	})
}

// ckptApp is RDApp with the public rd.Config.Checkpoint hook set per rank.
// On the first checkpoint it measures the container write, its read-back
// and one buddy-mirror round, from inside a real job.
type ckptApp struct {
	cfg   rd.Config
	owned [][]int
	out   layerResults
}

func (a *ckptApp) Name() string { return "rd" }

func (a *ckptApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	cfg := a.cfg
	b := rankBench{r}
	cfg.Checkpoint = func(st rd.State) error {
		if st.StepsDone != 1 {
			return nil
		}
		var buf bytes.Buffer
		var err error
		write := func() {
			buf.Reset()
			if e := checkpoint.WriteRD(&buf, st, r.ID(), r.Size(), a.owned[r.ID()]); e != nil {
				err = e
			}
		}
		write()
		size := float64(buf.Len())
		a.out.add("checkpoint.write_ns_per_byte", 1e9/size, b.local(1, write))
		blob := append([]byte(nil), buf.Bytes()...)
		a.out.add("checkpoint.read_ns_per_byte", 1e9/size, b.local(1, func() {
			if _, _, _, _, e := checkpoint.ReadRD(bytes.NewReader(blob)); e != nil {
				err = e
			}
		}))
		a.out.add("checkpoint.mirror_us_p64", 1e6, b.collective(1, func() { checkpoint.Mirror(r, 4000, blob) }))
		if r.ID() == 0 {
			a.out.set("checkpoint.bytes_per_rank", size)
		}
		return err
	}
	return core.RDApp{Cfg: cfg}.Run(r)
}

// stormShapeSpec is the job faults-storm supervises, as a plain spec.
func stormShapeSpec(app core.App) core.JobSpec {
	sz := fullSizes
	return core.JobSpec{Ranks: sz.stormRanks, RanksPerNode: sz.stormRPN, App: app, SkipSteps: 1,
		MemPerRankGB: core.MemPerRankGB(sz.stormN, 1)}
}

func driveCheckpoint(out layerResults) error {
	sz := fullSizes
	p, err := mesh.CubeGrid(sz.stormRanks)
	if err != nil {
		return err
	}
	m := mesh.NewUnitCube(sz.stormN * p)
	app := &ckptApp{cfg: rd.Config{Mesh: m, Grid: [3]int{p, p, p}, Steps: 2}, out: out, owned: make([][]int, sz.stormRanks)}
	for rank := range app.owned {
		l, err := mesh.NewLocalFromBlock(m, p, p, p, rank)
		if err != nil {
			return err
		}
		app.owned[rank] = l.VertGlobal[:l.NumOwned]
	}
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		return err
	}
	_, err = tg.Run(stormShapeSpec(app))
	return err
}

// driveCleanJob times the plain Target.Run of faults-storm's shape: the
// denominator of bench.host_overhead_x.
func driveCleanJob(out layerResults) error {
	sz := fullSizes
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		return err
	}
	var secs []float64
	for i := 0; i < 3; i++ {
		app, err := core.WeakRD(sz.stormRanks, sz.stormN, sz.stormSteps)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := tg.Run(stormShapeSpec(app)); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	out.add("bench.clean_host_s", 1, secs)
	return nil
}

// driveJournal measures journal encode, parse, merge-and-write and the
// first-divergence finder on the journal of one observed 8-rank RD job.
func driveJournal(out layerResults) error {
	run := obs.NewRun()
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		return err
	}
	app, err := core.WeakRD(8, 6, 4)
	if err != nil {
		return err
	}
	if _, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1, Obs: run}); err != nil {
		return err
	}
	var j bytes.Buffer
	if err := run.WriteJournal(&j); err != nil {
		return err
	}
	evs, err := obs.ReadJournal(bytes.NewReader(j.Bytes()))
	if err != nil {
		return err
	}
	lines := float64(len(evs))
	var scratch []byte
	out.add("obs.append_ns_per_event", 1e9/lines, sample(1, func() {
		for i := range evs {
			scratch = obs.AppendEventLine(scratch[:0], &evs[i])
		}
	}))
	out.add("obs.parse_ns_per_line", 1e9/lines, sample(1, func() {
		if _, e := obs.ReadJournal(bytes.NewReader(j.Bytes())); e != nil {
			err = e
		}
	}))
	out.add("obs.write_journal_ns_per_event", 1e9/lines, sample(1, func() {
		if e := run.WriteJournal(io.Discard); e != nil {
			err = e
		}
	}))
	diff := func(other []byte, wantDiverge bool) func() {
		return func() {
			d, _, e := triage.Diff("a", bytes.NewReader(j.Bytes()), "b", bytes.NewReader(other), 3)
			if e == nil && (d != nil) != wantDiverge {
				e = fmt.Errorf("layers: triage.Diff divergence %v, want %v", d != nil, wantDiverge)
			}
			if e != nil {
				err = e
			}
		}
	}
	out.add("triage.diff_same_ns_per_line", 1e9/lines, sample(1, diff(j.Bytes(), false)))
	// A journal whose middle event carries another time: the finder streams
	// half the file, then builds both sides' context.
	ls := bytes.SplitAfter(j.Bytes(), []byte("\n"))
	mid := len(evs) / 2
	ev := evs[mid]
	ev.T++
	ls[mid] = obs.AppendEventLine(nil, &ev)
	changed := bytes.Join(ls, nil)
	out.add("triage.diff_div_us", 1e6, sample(1, diff(changed, true)))
	return err
}

// driveModels times the two model calls every simulated message and every
// charged kernel makes.
func driveModels(out layerResults) error {
	plat, err := platform.Get("ec2")
	if err != nil {
		return err
	}
	fab, err := netmodel.NewFabric(plat.Net, 64)
	if err != nil {
		return err
	}
	var sink float64
	out.add("netmodel.p2p_ns", 1e9, sample(1000, func() { sink += fab.P2P(1024, false, true, 16) }))
	clk := vclock.New(plat.Rater)
	out.add("vclock.charge_ns", 1e9, sample(1000, func() { clk.ChargeCompute(100, 800) }))
	if sink < 0 {
		return fmt.Errorf("layers: negative transfer time")
	}
	return nil
}

// llcBytes is the largest cache the first CPU reports, 32 MiB when the
// platform does not say.
func llcBytes() int64 {
	best := int64(0)
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// bigSpMVCap bounds the memory-bound SpMV's arrays: a virtual machine may
// report a host cache of hundreds of megabytes it only has a slice of.
const bigSpMVCap = 1 << 30

// driveSpMVBig is the memory-bound SpMV: a 7-point Laplacian whose CSR
// arrays and vectors total at least four times the last-level cache (or
// bigSpMVCap), so every pass streams from memory. Both sizes are recorded.
func driveSpMVBig(out layerResults) error {
	llc := llcBytes()
	want := 4 * llc
	if want > bigSpMVCap {
		want = bigSpMVCap
	}
	// Per row: 7 nonzeros of 16 bytes, a row pointer and two vector entries.
	const bytesPerRow = 7*16 + 3*8
	nx := int(math.Ceil(math.Cbrt(float64(want) / bytesPerRow)))
	n := nx * nx * nx
	a := &sparse.CSR{NRows: n, NCols: n, RowPtr: make([]int, 1, n+1),
		Col: make([]int, 0, 7*n), Val: make([]float64, 0, 7*n)}
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			for k := 0; k < nx; k++ {
				row := (i*nx+j)*nx + k
				put := func(ok bool, col int, v float64) {
					if ok {
						a.Col = append(a.Col, col)
						a.Val = append(a.Val, v)
					}
				}
				put(i > 0, row-nx*nx, -1)
				put(j > 0, row-nx, -1)
				put(k > 0, row-1, -1)
				put(true, row, 6)
				put(k < nx-1, row+1, -1)
				put(j < nx-1, row+nx, -1)
				put(i < nx-1, row+nx*nx, -1)
				a.RowPtr = append(a.RowPtr, len(a.Col))
			}
		}
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	out.add("sparse.spmv_big_ns_per_nnz", 1e9/float64(a.NNZ()), sample(1, func() { a.MulVec(x, y, sparse.NopCharger{}) }))
	out.set("sparse.spmv_big_mb", float64(16*a.NNZ()+8*(len(a.RowPtr)+2*n))/1e6)
	out.set("sparse.llc_mb", float64(llc)/1e6)
	return nil
}
