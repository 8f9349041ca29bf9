package mp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
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
