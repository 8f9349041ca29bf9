package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"testing"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

// Golden hashes captured on the pre-pooling tree (commit 039d81f), before
// the mailbox/payload pooling, workspace reuse and checkpoint
// double-buffering landed. The zero-allocation steady state must not change
// a single byte of fault-path output: virtual-clock charges, message
// patterns, supervisor decisions and checkpoint serialisations are all part
// of the deterministic contract. If one of these fails, a pooling change
// leaked into observable behaviour — fix the change, do not rebaseline.
const (
	goldenRestartReportSHA = "c762e5030fe09cb00b8bf05674746bffc6cdf186095e207e9e2ed73d40dc0a6a"
	// Rebaselined when CompareRecovery gained the migrate policy: the
	// comparison report grew a third column and a migrate paragraph. The
	// restart-report and checkpoint goldens above/below are unchanged from
	// the pre-pooling capture, which is what pins the numeric behaviour.
	goldenShrinkCompareSHA   = "dea0befd3061dbc09ca29fae5809662c10a4da49862952b98710da48d154f215"
	goldenCrashCheckpointSHA = "fd3dea9d7f6c301205a190e0257d2bb39296038a6f70348a1db2e56f27bb79a2"
)

// TestPooledFaultPathMatchesPrePoolingGoldens replays a seeded crash run
// under the restart and shrink policies and a direct crashed run, comparing
// the recovery reports and the per-rank checkpoint bytes against the
// pre-pooling goldens above.
func TestPooledFaultPathMatchesPrePoolingGoldens(t *testing.T) {
	restartOpts := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, PerRankN: 4, Steps: 3,
		Seed: 7, Crashes: 1,
	}

	t.Run("restart-report", func(t *testing.T) {
		rep, err := RunSupervised(restartOpts)
		if err != nil {
			t.Fatalf("RunSupervised: %v", err)
		}
		h := sha256.Sum256([]byte(FormatRecovery(rep)))
		if got := hex.EncodeToString(h[:]); got != goldenRestartReportSHA {
			t.Errorf("restart recovery report drifted from pre-pooling golden:\ngot  %s\nwant %s",
				got, goldenRestartReportSHA)
		}
	})

	t.Run("shrink-comparison", func(t *testing.T) {
		shrinkOpts := restartOpts
		shrinkOpts.Policy = PolicyShrink
		shrinkOpts.RanksPerNode = 2
		cmp, err := CompareRecovery(shrinkOpts)
		if err != nil {
			t.Fatalf("CompareRecovery: %v", err)
		}
		h := sha256.Sum256([]byte(FormatRecoveryComparison(cmp)))
		if got := hex.EncodeToString(h[:]); got != goldenShrinkCompareSHA {
			t.Errorf("shrink comparison report drifted from pre-pooling golden:\ngot  %s\nwant %s",
				got, goldenShrinkCompareSHA)
		}
	})

	t.Run("crashed-checkpoint-bytes", func(t *testing.T) {
		got, err := crashedCheckpointHash()
		if err != nil {
			t.Fatalf("crashedCheckpointHash: %v", err)
		}
		if got != goldenCrashCheckpointSHA {
			t.Errorf("crashed-run checkpoint bytes drifted from pre-pooling golden:\ngot  %s\nwant %s",
				got, goldenCrashCheckpointSHA)
		}
	})
}

// crashedCheckpointHash runs an 8-rank RD job with an injected mid-run
// crash, hashing every checkpoint each rank serialises before the world
// dies. The combined hash is order-independent (sorted by rank, step), so
// it is stable under goroutine scheduling and valid under -race.
func crashedCheckpointHash() (string, error) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		return "", err
	}
	app, err := core.WeakRD(8, 4, 3)
	if err != nil {
		return "", err
	}
	base := app.(core.RDApp).Cfg
	var mu sync.Mutex
	sums := map[string]string{}
	_, err = tg.Run(core.JobSpec{
		Ranks:        8,
		RanksPerNode: 2,
		App:          checkpointHashApp{cfg: base, mu: &mu, sums: sums},
		Faults: []fault.Event{
			{Kind: fault.KindCrash, Node: 1, At: 1.1},
		},
	})
	if err == nil {
		return "", fmt.Errorf("expected crash, run succeeded")
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, sums[k])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkpointHashApp wraps the RD app with a per-rank checkpoint callback
// that hashes the serialised checkpoint bytes immediately: the State's
// vectors are the time loop's own, so it serialises before returning and
// keeps nothing across calls.
type checkpointHashApp struct {
	cfg  rd.Config
	mu   *sync.Mutex
	sums map[string]string
}

func (a checkpointHashApp) Name() string { return "rd" }

func (a checkpointHashApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	rank, size := r.ID(), r.Size()
	p := a.cfg.Grid[0]
	l, err := mesh.NewLocalFromBlock(a.cfg.Mesh, p, p, p, rank)
	if err != nil {
		return nil, nil, err
	}
	owned := l.VertGlobal[:l.NumOwned]
	cfg := a.cfg
	cfg.Checkpoint = func(st rd.State) error {
		var buf bytes.Buffer
		if err := checkpoint.WriteRD(&buf, st, rank, size, owned); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		a.mu.Lock()
		a.sums[fmt.Sprintf("r%02d-s%02d", rank, st.StepsDone)] = hex.EncodeToString(sum[:])
		a.mu.Unlock()
		return nil
	}
	return core.RDApp{Cfg: cfg}.Run(r)
}
