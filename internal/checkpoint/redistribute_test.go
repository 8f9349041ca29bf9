package checkpoint

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

// fieldValue is the synthetic value of field f at global vertex gid: every
// (field, vertex) pair gets its own float, so a test can verify exact
// placement after redistribution.
func fieldValue(f, gid int) float64 {
	return math.Sqrt(float64(7*gid+f+1)) / float64(f+1)
}

// fragment builds origin's snapshot in the gridOld decomposition of m under
// app's layout, filled with fieldValue.
func fragment(t *testing.T, app string, m *mesh.Mesh, gridOld [3]int, origin, step int, tm float64) Snapshot {
	t.Helper()
	l, err := mesh.NewLocalFromBlock(m, gridOld[0], gridOld[1], gridOld[2], origin)
	if err != nil {
		t.Fatal(err)
	}
	s := Snapshot{StepsDone: step, Time: tm, Rank: origin,
		Owned: append([]int(nil), l.VertGlobal[:l.NumOwned]...)}
	for f := range layouts[app].fields {
		vals := make([]float64, len(s.Owned))
		for i, gid := range s.Owned {
			vals[i] = fieldValue(f, gid)
		}
		s.Fields = append(s.Fields, vals)
	}
	return s
}

// runWorld runs body on nranks ranks and returns the world's error.
func runWorld(t *testing.T, nranks int, body func(r *mp.Rank) error) error {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return w.Run(body)
}

// TestRedistribute drives the one Redistribute over both field layouts: who
// holds which old-rank fragments on which new grid, and what must come out.
func TestRedistribute(t *testing.T) {
	m := mesh.NewUnitCube(4)
	old := [3]int{2, 2, 1} // 4 old ranks
	cases := []struct {
		name    string
		gridNew [3]int
		// heldBy[r] lists the old ranks whose fragments new rank r holds.
		heldBy [][]int
		// step overrides a holder's restore line (by new rank).
		step map[int]int
		// trim halves the fragment the given new rank holds.
		trim    int
		wantErr string
	}{
		// Survivor 0 holds its own fragment plus buddy copies of dead origins
		// 2 and 3; survivor 1 holds only origin 1's.
		{name: "exact-permutation", gridNew: [3]int{2, 1, 1}, heldBy: [][]int{{0, 2, 3}, {1}}, trim: -1},
		{name: "non-cubic-survivors", gridNew: [3]int{3, 1, 1}, heldBy: [][]int{{0, 3}, {1}, {2}}, trim: -1},
		{name: "identity-decomposition", gridNew: old, heldBy: [][]int{{0}, {1}, {2}, {3}}, trim: -1},
		// A rank that joined at a Grow holds nothing and only receives.
		{name: "empty-handed-joiner", gridNew: old, heldBy: [][]int{{0, 3}, {1}, {2}, {}}, trim: -1},
		{name: "nobody-holds-anything", gridNew: [3]int{2, 1, 1}, heldBy: [][]int{{}, {}}, trim: -1,
			wantErr: "no rank holds any state"},
		{name: "double-delivery", gridNew: [3]int{2, 1, 1}, heldBy: [][]int{{0, 2, 3}, {1, 2}}, trim: -1,
			wantErr: "delivered twice"},
		{name: "incomplete-coverage", gridNew: [3]int{2, 1, 1}, heldBy: [][]int{{0, 2, 3}, {1}}, trim: 1,
			wantErr: "never delivered"},
		{name: "restore-line-disagreement", gridNew: [3]int{2, 1, 1}, heldBy: [][]int{{0, 2, 3}, {1}}, trim: -1,
			step: map[int]int{1: 4}, wantErr: "disagree on the restore line"},
		{name: "grid-does-not-match-world", gridNew: [3]int{3, 1, 1}, heldBy: [][]int{{0, 2, 3}, {1}}, trim: -1,
			wantErr: "grid [3 1 1] for 2 ranks"},
	}
	for _, app := range []string{AppRD, AppNS} {
		for _, c := range cases {
			t.Run(app+"/"+c.name, func(t *testing.T) {
				p := len(c.heldBy)
				var mu sync.Mutex
				got := make([]Snapshot, p)
				err := runWorld(t, p, func(r *mp.Rank) error {
					var held []Snapshot
					for _, origin := range c.heldBy[r.ID()] {
						step := 3
						if s, ok := c.step[r.ID()]; ok {
							step = s
						}
						held = append(held, fragment(t, app, m, old, origin, step, 0.375))
					}
					if r.ID() == c.trim {
						h := &held[0]
						n := len(h.Owned) / 2
						h.Owned = h.Owned[:n]
						for f := range h.Fields {
							h.Fields[f] = h.Fields[f][:n]
						}
					}
					s, err := Redistribute(r, m, c.gridNew, app, held, 9100)
					mu.Lock()
					got[r.ID()] = s
					mu.Unlock()
					return err
				})
				if c.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), c.wantErr) {
						t.Fatalf("got %v, want an error containing %q", err, c.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int]bool{}
				for rk, s := range got {
					l, err := mesh.NewLocalFromBlock(m, c.gridNew[0], c.gridNew[1], c.gridNew[2], rk)
					if err != nil {
						t.Fatal(err)
					}
					if s.StepsDone != 3 || s.Time != 0.375 || s.Rank != rk || s.Width != p {
						t.Fatalf("rank %d resumed at step %d t=%v as rank %d of %d", rk, s.StepsDone, s.Time, s.Rank, s.Width)
					}
					if len(s.Owned) != l.NumOwned || len(s.Fields) != len(layouts[app].fields) {
						t.Fatalf("rank %d owns %d ids in %d fields, want %d in %d",
							rk, len(s.Owned), len(s.Fields), l.NumOwned, len(layouts[app].fields))
					}
					for i, gid := range s.Owned {
						if gid != l.VertGlobal[i] {
							t.Fatalf("rank %d owned[%d] = %d, want %d", rk, i, gid, l.VertGlobal[i])
						}
						if seen[gid] {
							t.Fatalf("vertex %d owned twice", gid)
						}
						seen[gid] = true
						// Bit-exact: the exact floats the origins held.
						for f := range s.Fields {
							if math.Float64bits(s.Fields[f][i]) != math.Float64bits(fieldValue(f, gid)) {
								t.Fatalf("field %s at vertex %d not bit-identical", layouts[app].fields[f], gid)
							}
						}
					}
				}
				if len(seen) != m.NumVerts() {
					t.Fatalf("redistribution covered %d of %d vertices", len(seen), m.NumVerts())
				}
			})
		}
	}
}

// solverRun runs app's solver on rank r from resume (nil: from the exact
// initial state), handing every completed step's snapshot to save, and
// returns the final owned solution values. State crosses between the solver's
// type and the neutral one through the containers themselves: the typed
// writer's bytes are read back neutrally and vice versa.
func solverRun(r *mp.Rank, app string, m *mesh.Mesh, grid [3]int, steps int, resume *Snapshot, owned []int, save func(Snapshot)) ([]float64, error) {
	var blob bytes.Buffer
	if resume != nil {
		if err := Write(&blob, app, *resume); err != nil {
			return nil, err
		}
	}
	saved := func(err error) error {
		if err != nil {
			return err
		}
		s, err := Read(&blob, app)
		blob.Reset()
		save(s)
		return err
	}
	if app == AppRD {
		cfg := rd.Config{Mesh: m, Grid: grid, Steps: steps}
		if resume != nil {
			st, _, _, _, err := ReadRD(&blob)
			if err != nil {
				return nil, err
			}
			cfg.Resume = &st
		}
		cfg.Checkpoint = func(st rd.State) error { return saved(WriteRD(&blob, st, r.ID(), r.Size(), owned)) }
		res, err := rd.Run(r, cfg)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	cfg := nse.Config{Mesh: m, Grid: grid, Steps: steps}
	if resume != nil {
		s, err := Read(&blob, AppNS)
		if err != nil {
			return nil, err
		}
		st := nsState(s)
		cfg.Resume = &st
	}
	cfg.Checkpoint = func(st nse.State) error { return saved(Write(&blob, AppNS, nsSnapshot(st, r.ID(), r.Size(), owned))) }
	res, err := nse.Run(r, cfg)
	if err != nil {
		return nil, err
	}
	return slices.Concat(res.Velocity[0], res.Velocity[1], res.Velocity[2], res.Pressure), nil
}

// A run resumed from a redistributed snapshot is bit-identical to the
// uninterrupted run: the fragments of a step-1 checkpoint are handed to the
// WRONG holders (every rank holds its neighbour's), Redistribute routes them
// home as real traffic, and the resumed solver must land on the straight
// run's exact floats. Both layouts.
func TestResumeFromRedistributedSnapshotIsBitIdentical(t *testing.T) {
	const p, steps, stop = 4, 3, 1
	grid := [3]int{2, 2, 1}
	for _, app := range []string{AppRD, AppNS} {
		t.Run(app, func(t *testing.T) {
			m := mesh.NewUnitCube(4)
			if app == AppNS {
				var err error
				if m, err = mesh.NewBox(mesh.SymmetricBox, 4, 4, 4); err != nil {
					t.Fatal(err)
				}
			}
			straight := make([][]float64, p)
			frags := make([]Snapshot, p)
			if err := runWorld(t, p, func(r *mp.Rank) error {
				l, err := mesh.NewLocalFromBlock(m, grid[0], grid[1], grid[2], r.ID())
				if err != nil {
					return err
				}
				sol, err := solverRun(r, app, m, grid, steps, nil, l.VertGlobal[:l.NumOwned], func(s Snapshot) {
					if s.StepsDone == stop {
						frags[r.ID()] = s
					}
				})
				straight[r.ID()] = sol
				return err
			}); err != nil {
				t.Fatal(err)
			}

			resumed := make([][]float64, p)
			if err := runWorld(t, p, func(r *mp.Rank) error {
				s, err := Redistribute(r, m, grid, app, []Snapshot{frags[(r.ID()+1)%p]}, 9100)
				if err != nil {
					return err
				}
				sol, err := solverRun(r, app, m, grid, steps, &s, s.Owned, func(Snapshot) {})
				resumed[r.ID()] = sol
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for rank := range straight {
				if len(straight[rank]) == 0 || len(straight[rank]) != len(resumed[rank]) {
					t.Fatalf("rank %d: %d vs %d final values", rank, len(straight[rank]), len(resumed[rank]))
				}
				for i := range straight[rank] {
					if math.Float64bits(straight[rank][i]) != math.Float64bits(resumed[rank][i]) {
						t.Fatalf("rank %d value %d: straight %x, resumed %x — not bit-identical", rank, i,
							math.Float64bits(straight[rank][i]), math.Float64bits(resumed[rank][i]))
					}
				}
			}
		})
	}
}
