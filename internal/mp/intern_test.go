package mp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestInternBuildsEachValueOnce: 64 ranks ask for one of eight values under
// two colliding keys, three rounds over. Every value must be built exactly
// once — whichever rank gets there first, while its class-mates wait — and
// every rank must come away with its class's one copy.
func TestInternBuildsEachValueOnce(t *testing.T) {
	const p, classes = 64, 8
	w := testWorld(t, p, 8)
	var builds [classes]atomic.Int32
	held := make([]*int, p)
	err := w.Run(func(r *Rank) error {
		class := r.ID() % classes
		for round := 0; round < 3; round++ {
			v, err := r.Intern(uint64(class%2),
				func(v any) bool { return *v.(*int) == class },
				func() (any, error) {
					builds[class].Add(1)
					runtime.Gosched() // let class-mates find the entry pending
					v := class
					return &v, nil
				})
			if err != nil {
				return err
			}
			if held[r.ID()] != nil && held[r.ID()] != v.(*int) {
				return fmt.Errorf("round %d gave another copy", round)
			}
			held[r.ID()] = v.(*int)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range builds {
		if n := builds[c].Load(); n != 1 {
			t.Errorf("value %d was built %d times", c, n)
		}
	}
	for id, v := range held {
		if *v != id%classes || v != held[id%classes] {
			t.Errorf("rank %d holds %p (%d), its class holds %p", id, v, *v, held[id%classes])
		}
	}
}

// TestInternSurvivesFailedBuilder: rank 0 files its entry, keeps it pending
// until every other rank is on its way into Intern, and then fails — with an
// error, or by panicking. The waiters must all resolve, one of them must
// build in its place, and the failure must stay rank 0's own.
func TestInternSurvivesFailedBuilder(t *testing.T) {
	const p = 9
	for _, how := range []string{"error", "panic"} {
		t.Run(how, func(t *testing.T) {
			w := testWorld(t, p, 3)
			filed := make(chan struct{})
			var arrived, builds atomic.Int32
			held := make([]any, p)
			err := w.Run(func(r *Rank) error {
				accept := func(any) bool { return true }
				if r.ID() == 0 {
					_, err := r.Intern(7, accept, func() (any, error) {
						close(filed)
						for arrived.Load() < p-1 {
							runtime.Gosched()
						}
						if how == "panic" {
							panic("builder bug")
						}
						return nil, errors.New("builder failed")
					})
					return err
				}
				<-filed
				arrived.Add(1)
				v, err := r.Intern(7, accept, func() (any, error) {
					builds.Add(1)
					return new(int), nil
				})
				held[r.ID()] = v
				return err
			})
			var re *RankError
			if !errors.As(err, &re) || re.Rank != 0 || !strings.Contains(err.Error(), "builder") {
				t.Fatalf("world error %v, want rank 0's builder failure", err)
			}
			if n := builds.Load(); n != 1 {
				t.Errorf("%d waiters built, want one", n)
			}
			for id := 1; id < p; id++ {
				if held[id] == nil || held[id] != held[1] {
					t.Errorf("rank %d holds %v, rank 1 holds %v", id, held[id], held[1])
				}
			}
		})
	}
}

// internInts is a rank's Intern of the int v under key v, counting builds.
func internInts(r *Rank, v int, builds *atomic.Int32) (*int, error) {
	got, err := r.Intern(uint64(v),
		func(x any) bool { return *x.(*int) == v },
		func() (any, error) {
			builds.Add(1)
			x := v
			return &x, nil
		})
	if err != nil {
		return nil, err
	}
	return got.(*int), nil
}

// runInterning runs w with every rank interning the value valueOf(its id),
// and returns what each rank came away with.
func runInterning(t *testing.T, w *World, valueOf func(id int) int, builds *atomic.Int32) []*int {
	t.Helper()
	held := make([]*int, w.Size())
	err := w.Run(func(r *Rank) error {
		v, err := internInts(r, valueOf(r.ID()), builds)
		held[r.ID()] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return held
}

// TestInternTableSharedBetweenWorlds: a second world handed the first's
// table builds nothing the first filed, and its ranks come away with the
// first's copies; a plain NewWorld starts empty.
func TestInternTableSharedBetweenWorlds(t *testing.T) {
	var table InternTable
	var builds atomic.Int32
	class := func(id int) int { return id % 4 }
	first := testWorld(t, 8, 4)
	first.UseInterns(&table)
	h1 := runInterning(t, first, class, &builds)
	if n := builds.Load(); n != 4 {
		t.Fatalf("first world built %d values, want 4", n)
	}
	second := testWorld(t, 8, 4)
	second.UseInterns(&table)
	h2 := runInterning(t, second, class, &builds)
	if n := builds.Load(); n != 4 {
		t.Errorf("second world built %d values, want none", n-4)
	}
	plain := testWorld(t, 8, 4)
	h3 := runInterning(t, plain, class, &builds)
	if n := builds.Load(); n != 8 {
		t.Errorf("plain world built %d values, want 4", n-4)
	}
	for id := range h1 {
		if h2[id] != h1[id] {
			t.Errorf("rank %d of the second world holds %p, the first held %p", id, h2[id], h1[id])
		}
		if h3[id] == h1[id] {
			t.Errorf("rank %d of a plain world holds the first world's %p", id, h1[id])
		}
	}
}

// TestInternPruneKeepsWhatTheLastJobUsed: job 1 files X and Y, job 2 uses only X,
// so job 3 adopts X and builds Y again; a failed build is gone after the
// Prune that ends its job.
func TestInternPruneKeepsWhatTheLastJobUsed(t *testing.T) {
	const x, y, failing = 1, 2, 3
	var table InternTable
	var builds [4]atomic.Int32
	job := func(values ...int) []*int {
		w := testWorld(t, 4, 2)
		w.UseInterns(&table)
		held := make([]*int, 0, len(values))
		err := w.Run(func(r *Rank) error {
			for _, v := range values {
				p, err := internInts(r, v, &builds[v])
				if r.ID() == 0 {
					held = append(held, p)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		table.Prune()
		return held
	}
	j1 := job(x, y)
	j2 := job(x)
	j3 := job(x, y)
	if j2[0] != j1[0] || j3[0] != j1[0] {
		t.Errorf("X: jobs held %p, %p, %p; want job 1's copy throughout", j1[0], j2[0], j3[0])
	}
	if j3[1] == j1[1] {
		t.Errorf("job 3 adopted Y from job 1, which job 2 did not use")
	}
	if n := builds[x].Load(); n != 1 {
		t.Errorf("X built %d times, want 1", n)
	}
	if n := builds[y].Load(); n != 2 {
		t.Errorf("Y built %d times, want 2", n)
	}

	w := testWorld(t, 1, 1)
	w.UseInterns(&table)
	err := w.Run(func(r *Rank) error {
		_, err := r.Intern(failing, func(any) bool { return true },
			func() (any, error) { return nil, errors.New("build failed") })
		return err
	})
	if err == nil {
		t.Fatal("failed build reported no error")
	}
	if n := len(table.chains[failing]); n != 1 {
		t.Fatalf("failed build left %d entries before Prune, want 1", n)
	}
	table.Prune()
	if _, ok := table.chains[failing]; ok {
		t.Errorf("failed build's entry survived Prune")
	}
	if n := len(table.chains); n != 0 {
		t.Errorf("%d keys survived a Prune after a job that used none", n)
	}
}

// TestInternTableSharedByReform: the world Reform forms adopts what its
// parent filed, on survivors and joiners alike.
func TestInternTableSharedByReform(t *testing.T) {
	class := func(id int) int { return id % 2 }
	var builds atomic.Int32
	w := faultWorld(t, 8, 2)
	if err := w.ScheduleNodeCrash(1, 0.005); err != nil {
		t.Fatal(err)
	}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		if _, err := internInts(r, class(r.ID()), &builds); err != nil {
			return err
		}
		for i := 0; i < 1000; i++ {
			r.ChargeCompute(1e6, 0)
			r.AllreduceScalar(OpSum, 1)
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("crash did not poison the world: %v", err)
	}
	rf, err := w.Reform(nil, []int{2}, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	filed := builds.Load()
	runInterning(t, rf.World, class, &builds)
	if n := builds.Load() - filed; n != 0 {
		t.Errorf("re-formed world built %d values its parent had filed", n)
	}
}
