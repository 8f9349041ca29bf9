package bench

import (
	"runtime"
	"testing"
)

// TestStorm64IsScheduleIndependent runs the 64-rank storm under every policy
// at GOMAXPROCS 1, 2 and the host's default and requires one recovery report
// and one journal per policy: which rank the host runs first must not decide
// what a survivor had received when a death reached it.
func TestStorm64IsScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		procs = append(procs, n)
	}
	for _, policy := range storm64.policies {
		t.Run(policy, func(t *testing.T) {
			var text, journal string
			for i, n := range procs {
				runtime.GOMAXPROCS(n)
				tx, j := matrixRun(t, storm64, policy, nil)
				if i == 0 {
					text, journal = tx, sha(j)
					continue
				}
				if tx != text {
					t.Errorf("GOMAXPROCS %d reports differently:\n%s\nGOMAXPROCS %d:\n%s", n, tx, procs[0], text)
				}
				if got := sha(j); got != journal {
					t.Errorf("GOMAXPROCS %d wrote journal %s, GOMAXPROCS %d %s", n, got, procs[0], journal)
				}
			}
		})
	}
}
