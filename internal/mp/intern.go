package mp

import "sync"

// InternTable is a single-flight table of immutable host-side values that
// several ranks would otherwise each build for themselves: the symbolic
// matrix structure of a position class in a block decomposition, and the
// value array of a constant operator that class-mates assemble bit for bit
// alike (sparse.DistMatrix.Freeze). Both kinds share one table and may share
// a chain, so an accept tells them apart by type.
// It belongs to the simulator, not to the simulated job: no clock, message
// or journal event is involved. Every world points at one: NewWorld makes a
// fresh one, a world that Reform forms shares its parent's, and a
// world's maker may hand it another (UseInterns) so that the jobs run one
// after the other — a sweep's points, a supervisor's attempts — adopt what
// the jobs before them built. Prune between two jobs keeps what the last
// one used and drops the rest.
//
// Values are chained under a fingerprint in arrival order. An entry is
// pending until its builder has finished — done is closed either way, val
// stays nil when the build failed — and never changes afterwards but for
// job, under mu.
type InternTable struct {
	mu     sync.Mutex
	chains map[uint64][]*interned
	// job counts the Prunes so far: it numbers the job now running.
	job uint64
}

type interned struct {
	done chan struct{}
	val  any
	// job is the last job that filed or adopted the entry.
	job uint64
}

// UseInterns points the world at t, which its ranks' Intern calls then
// share with every other world handed t. It must be called before Run.
func (w *World) UseInterns(t *InternTable) { w.interns = t }

// Prune ends a job: it drops every entry the job did not file or adopt,
// and every failed build, so the table holds at most one job's entries. It
// must not run while a rank of a world using the table is in Intern.
func (t *InternTable) Prune() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, chain := range t.chains {
		kept := chain[:0]
		for _, e := range chain {
			if e.val != nil && e.job == t.job {
				kept = append(kept, e)
			}
		}
		clear(chain[len(kept):])
		if len(kept) == 0 {
			delete(t.chains, key)
		} else {
			t.chains[key] = kept
		}
	}
	t.job++
}

// Intern returns the first value filed under key that accept takes, and
// otherwise the one build makes, which it files for the ranks that come
// after. A rank that finds an entry still being built waits for it, so ranks
// that would build equal values build one: the number of builds is the number
// of distinct values, whatever the schedule. accept must be exact — key only
// narrows the search, and colliding keys share a chain, whatever kind of
// value each filed — and must leave the value alone: it is shared between
// goroutines, and between the worlds that share the table, from the moment
// it is filed.
//
// The wait always ends provided build waits for no other rank: a builder
// then finishes whatever its peers do, and it resolves its entry also when
// build fails or panics — the waiters then move on and build for themselves.
// Callers must therefore do all their communication before they call Intern.
func (r *Rank) Intern(key uint64, accept func(v any) bool, build func() (any, error)) (any, error) {
	t := r.world.interns
	for i := 0; ; i++ {
		t.mu.Lock()
		chain := t.chains[key]
		if i == len(chain) {
			// Nothing filed so far fits, and under the lock nothing can be
			// filed between that finding and this entry.
			e := &interned{done: make(chan struct{}), job: t.job}
			if t.chains == nil {
				t.chains = map[uint64][]*interned{}
			}
			t.chains[key] = append(chain, e)
			t.mu.Unlock()
			defer close(e.done)
			v, err := build()
			if err != nil {
				return nil, err
			}
			e.val = v
			return v, nil
		}
		e := chain[i]
		t.mu.Unlock()
		<-e.done
		if e.val != nil && accept(e.val) {
			t.mu.Lock()
			e.job = t.job
			t.mu.Unlock()
			return e.val, nil
		}
	}
}
