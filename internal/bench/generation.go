package bench

import (
	"bytes"
	"fmt"
	"sync"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/core"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

// Application tags of the recovery machinery; the solvers use 1000–2600.
const (
	tagMirror = 9000
	tagRedist = 9100
)

// solver adapts one application to the app-neutral recovery machinery: how
// to build its weak-scaling mesh, how heavy a rank is, and how to run it
// with its state entering and leaving as checkpoint.Snapshot. The two
// adapters below are the only places the recovery code knows which
// application it is running.
type solver struct {
	// app is the core.App name and the checkpoint layout.
	app string
	// fields weights core.MemPerRankGB; errKey is the headline error metric.
	fields int
	errKey string
	// current lists the snapshot fields holding the newest solution (what a
	// replay dump takes norms of).
	current []int
	mesh    func(n int) (*mesh.Mesh, error)
	// run executes the solver on one rank, resuming from resume when non-nil
	// and handing every completed step's state to save. The snapshot's
	// fields are the time loop's own vectors: save serialises before it
	// returns.
	run func(r *mp.Rank, m *mesh.Mesh, grid [3]int, steps int, resume *checkpoint.Snapshot,
		save func(checkpoint.Snapshot) error) ([]vclock.PhaseTimes, map[string]float64, error)
}

var solvers = map[string]*solver{
	checkpoint.AppRD: {
		app: checkpoint.AppRD, fields: 1, errKey: "max_err", current: []int{0},
		mesh: func(n int) (*mesh.Mesh, error) { return mesh.NewBox(mesh.UnitBox, n, n, n) },
		run: func(r *mp.Rank, m *mesh.Mesh, grid [3]int, steps int, resume *checkpoint.Snapshot,
			save func(checkpoint.Snapshot) error) ([]vclock.PhaseTimes, map[string]float64, error) {
			cfg := rd.Config{Mesh: m, Grid: grid, Steps: steps}
			if s := resume; s != nil {
				cfg.Resume = &rd.State{StepsDone: s.StepsDone, Time: s.Time, U1: s.Fields[0], U2: s.Fields[1]}
			}
			cfg.Checkpoint = func(st rd.State) error {
				return save(checkpoint.Snapshot{StepsDone: st.StepsDone, Time: st.Time,
					Fields: [][]float64{st.U1, st.U2}})
			}
			return core.RDApp{Cfg: cfg}.Run(r)
		},
	},
	checkpoint.AppNS: {
		app: checkpoint.AppNS, fields: 4, errKey: "vel_max_err", current: []int{0, 2, 4},
		mesh: func(n int) (*mesh.Mesh, error) { return mesh.NewBox(mesh.SymmetricBox, n, n, n) },
		run: func(r *mp.Rank, m *mesh.Mesh, grid [3]int, steps int, resume *checkpoint.Snapshot,
			save func(checkpoint.Snapshot) error) ([]vclock.PhaseTimes, map[string]float64, error) {
			cfg := nse.Config{Mesh: m, Grid: grid, Steps: steps}
			if s := resume; s != nil {
				st := nse.State{StepsDone: s.StepsDone, Time: s.Time, P: s.Fields[6]}
				for d := 0; d < 3; d++ {
					st.U1[d], st.U2[d] = s.Fields[2*d], s.Fields[2*d+1]
				}
				cfg.Resume = &st
			}
			cfg.Checkpoint = func(st nse.State) error {
				return save(checkpoint.Snapshot{StepsDone: st.StepsDone, Time: st.Time,
					Fields: [][]float64{st.U1[0], st.U2[0], st.U1[1], st.U2[1], st.U1[2], st.U2[2], st.P}})
			}
			return core.NSApp{Cfg: cfg}.Run(r)
		},
	},
}

// errKeyOf names app's headline error metric in a core.Report.
func errKeyOf(app string) string {
	if s, ok := solvers[app]; ok {
		return s.errKey
	}
	return "max_err"
}

// generation is one launch of a supervised job — what runs between two
// recovery points — and the core.App the supervisor hands to Attempt or
// ResumeAttempt. On every rank it optionally opens with the agreement
// collective, restores state (from held fragments via redistribution, else
// from the store's own copy, else the solver initialises from scratch), then
// runs the solver, saving each completed step: serialise once, put, and —
// when the store lives in node memory and the world spans at least two
// nodes — mirror the blob to the buddy as real traffic.
//
// With no store, no suspect and no held fragments it is a plain run at the
// current world size: the comparator shape of the bit-identity tests.
type generation struct {
	sol   *solver
	m     *mesh.Mesh
	grid  [3]int
	steps int
	ranks int
	// store receives the checkpoints (nil: none are kept).
	store *snapshotStore
	// held are per-rank fragment lists for the redistribution (nil: resume
	// from the store or from scratch — first generation, restart, or a cold
	// re-formation), and from the store they were assembled from: a
	// degraded generation that saved no line of its own restores from it
	// again.
	held [][]checkpoint.Snapshot
	from *snapshotStore
	// suspect is the local suspicion bitmap every rank feeds AgreeDead (nil:
	// no agreement round).
	suspect []bool
	// owned caches each rank's owned vertex ids under grid (each rank writes
	// only its own slot).
	owned [][]int

	// Per-rank observations, collected under mu for the supervisor.
	mu          sync.Mutex
	agreeS      []float64
	redistS     []float64
	mirrorS     []float64
	mirrorBytes int64
	agreedDead  []bool
}

// weakGeneration builds the first generation of a weak-scaling job: the
// global mesh sized by the submitted rank count (it never shrinks with the
// job — re-formed worlds re-partition the same mesh), the cubic grid, and the
// per-rank memory.
func weakGeneration(app string, ranks, perRankN, steps int, store *snapshotStore) (*generation, float64, error) {
	sol, ok := solvers[app]
	if !ok {
		return nil, 0, fmt.Errorf("bench: unknown application %q (want rd or ns)", app)
	}
	p, err := mesh.CubeGrid(ranks)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: weak scaling needs cubic rank counts: %w", err)
	}
	m, err := sol.mesh(perRankN * p)
	if err != nil {
		return nil, 0, err
	}
	g := &generation{sol: sol, m: m, steps: steps}
	return g.next([3]int{p, p, p}, ranks, store), core.MemPerRankGB(perRankN, sol.fields), nil
}

// next returns a fresh generation of the same problem on another
// decomposition.
func (g *generation) next(grid [3]int, ranks int, store *snapshotStore) *generation {
	return &generation{
		sol: g.sol, m: g.m, steps: g.steps, grid: grid, ranks: ranks, store: store,
		owned:   make([][]int, ranks),
		agreeS:  make([]float64, ranks),
		redistS: make([]float64, ranks),
		mirrorS: make([]float64, ranks),
	}
}

// Name implements core.App.
func (g *generation) Name() string { return g.sol.app }

// Run implements core.App.
func (g *generation) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	rank, size := r.ID(), r.Size()
	if g.suspect != nil {
		t0 := r.Wtime()
		agreed := r.AgreeDead(g.suspect)
		g.mu.Lock()
		g.agreeS[rank] = r.Wtime() - t0
		if rank == 0 {
			g.agreedDead = agreed
		}
		g.mu.Unlock()
	}

	var resume *checkpoint.Snapshot
	var owned []int
	if g.held != nil {
		t0 := r.Wtime()
		s, err := checkpoint.Redistribute(r, g.m, g.grid, g.sol.app, g.held[rank], tagRedist)
		if err != nil {
			return nil, nil, err
		}
		g.mu.Lock()
		g.redistS[rank] = r.Wtime() - t0
		g.mu.Unlock()
		resume, owned = &s, s.Owned
		r.Obs().Checkpoint("ckpt-restore", s.StepsDone, 0)
	} else {
		// Block ownership is fixed for the generation; a relaunch (the
		// restart verb reuses the generation) finds it computed.
		if g.owned[rank] == nil {
			l, err := mesh.NewLocalFromBlock(g.m, g.grid[0], g.grid[1], g.grid[2], rank)
			if err != nil {
				return nil, nil, err
			}
			g.owned[rank] = l.VertGlobal[:l.NumOwned]
		}
		owned = g.owned[rank]
		if g.store != nil {
			if b := g.store.latest(rank); b != nil {
				if s, err := checkpoint.Read(bytes.NewReader(b), g.sol.app); err == nil &&
					s.Rank == rank && s.Width == size && s.StepsDone < g.steps {
					resume = &s
					r.Obs().Checkpoint("ckpt-restore", s.StepsDone, int64(len(b)))
				}
			}
		}
	}

	mirror := g.store != nil && g.store.inMemory() && r.Topology().NNodes() >= 2
	save := func(s checkpoint.Snapshot) error {
		if g.store == nil {
			return nil
		}
		s.Owned, s.Rank, s.Width = owned, rank, size
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, g.sol.app, s); err != nil {
			return err
		}
		g.store.put(rank, s.StepsDone, r.Wtime(), buf.Bytes())
		if mirror {
			t0 := r.Wtime()
			for _, mr := range checkpoint.Mirror(r, tagMirror, buf.Bytes()) {
				g.store.putBuddy(mr.Origin, s.StepsDone, r.Wtime(), mr.Blob)
			}
			g.mu.Lock()
			g.mirrorS[rank] += r.Wtime() - t0
			g.mirrorBytes += int64(buf.Len())
			g.mu.Unlock()
		}
		return nil
	}
	return g.sol.run(r, g.m, g.grid, g.steps, resume, save)
}

// final returns rank's newest checkpoint in the generation's store: once the
// generation has completed, its state after the last step.
func (g *generation) final(rank int) (checkpoint.Snapshot, error) {
	b := g.store.latest(rank)
	if b == nil {
		return checkpoint.Snapshot{}, fmt.Errorf("bench: rank %d has no checkpoint", rank)
	}
	return checkpoint.Read(bytes.NewReader(b), g.sol.app)
}

// maxOf returns the per-rank maximum of a recorded vector.
func maxOf(v []float64) float64 {
	var max float64
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	return max
}
