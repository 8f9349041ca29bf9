package bench

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"

	"heterohpc/internal/core"
	"heterohpc/internal/obs"
)

// ReplayRankState is one rank's state at the divergence step.
type ReplayRankState struct {
	Rank int
	// StepsDone is the step count the rank's final replay checkpoint
	// captured (the divergence step on a healthy replay).
	StepsDone int
	// ClockS is the rank's virtual clock over the replayed steps.
	ClockS float64
	// LastSolver/LastIters/LastResidual/Converged describe the rank's last
	// linear solve, read back from the replay's own journal.
	LastSolver   string
	LastIters    int64
	LastResidual float64
	Converged    bool
	// StateL2 and StateMax are the ℓ2 and max norms of the rank's owned
	// solution values at the divergence step; StateTime the PDE time.
	StateL2, StateMax, StateTime float64
}

// ReplayDump is the solver/world state ReplayFromCheckpoint captured at
// the divergence step.
type ReplayDump struct {
	App, Platform string
	Ranks         int
	// AnchorStep is the checkpoint step the replay resumed from (0 with
	// ColdStart: no common checkpoint existed at or before the divergence,
	// so the replay re-ran from step 1).
	AnchorStep int
	ColdStart  bool
	// DivStep is the step the replay ran to.
	DivStep int
	// MaxVirtualS is the replay's virtual makespan (max over ranks);
	// MailboxHighWater the deepest virtual-time mailbox residency overlap.
	MaxVirtualS      float64
	MailboxHighWater float64
	PerRank          []ReplayRankState
}

// anchorStore is the replay tap's collector: every checkpoint written at the
// submitted width with step ≤ anchor, whichever generation of whichever
// policy wrote it (a degraded or re-formed world at another width does not
// anchor).
type anchorStore struct {
	mu     sync.Mutex
	width  int
	anchor int
	snaps  []map[int][]byte // per rank: step → blob
}

func newAnchorStore(width, anchor int) *anchorStore {
	s := &anchorStore{width: width, anchor: anchor, snaps: make([]map[int][]byte, width)}
	for i := range s.snaps {
		s.snaps[i] = make(map[int][]byte)
	}
	return s
}

func (s *anchorStore) tap(rank, step, width int, blob []byte) {
	if width != s.width || step < 1 || step > s.anchor || rank < 0 || rank >= s.width {
		return
	}
	s.mu.Lock()
	s.snaps[rank][step] = blob
	s.mu.Unlock()
}

// commonLine returns the largest step ≤ anchor every rank has a snapshot
// for, or 0 when none exists. Mixed per-rank resume steps would pair
// collectives across different time steps and hang, so the anchor is
// all-or-nothing.
func (s *anchorStore) commonLine() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for step := s.anchor; step >= 1; step-- {
		all := true
		for _, m := range s.snaps {
			if _, hit := m[step]; !hit {
				all = false
				break
			}
		}
		if all {
			return step
		}
	}
	return 0
}

// blobsAt returns each rank's snapshot at the given step (all nil for
// step 0: the cold-start replay).
func (s *anchorStore) blobsAt(step int) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, s.width)
	if step < 1 {
		return out
	}
	for i, m := range s.snaps {
		out[i] = m[step]
	}
	return out
}

// ReplayFromCheckpoint time-travels to a journal divergence: it re-runs
// the scenario o describes once while tapping every checkpoint write
// (phase 1), picks the nearest checkpoint line at or before the
// divergence step that all ranks share, then resumes a fresh fault-free
// world from that line and runs it up to the divergence step (phase 2),
// dumping solver and world state there. divStep is the step the divergence
// happened in (the diverging rank's last completed step + 1), clamped to
// [1, Steps]. Phase 1 is a plain job when o draws no event (no Plan, every
// count zero) and a supervised run under o.Policy otherwise; every policy
// writes its checkpoints through the one tapped store, and only generations
// at the submitted width anchor. o.Obs is not used: the phase-2 run is
// observed with a fresh journal and the dump's solve data is read back
// through the journal reader, so the replay exercises the same encoding it
// triages.
func ReplayFromCheckpoint(o FaultOptions, divStep int) (*ReplayDump, error) {
	if err := ValidateFaults(o); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	divStep = min(max(divStep, 1), o.Steps)
	anchors := newAnchorStore(o.Ranks, divStep-1)

	// Phase 1: re-run the scenario, tapping its checkpoint stream.
	if o.Plan != nil || o.Crashes+o.Preemptions+o.Degradations+o.StormWave > 0 {
		o.ckptTap, o.Obs = anchors.tap, nil
		if _, err := runSupervised(o); err != nil {
			return nil, fmt.Errorf("bench: replay phase 1 (scenario re-run) failed: %w", err)
		}
	} else {
		tg, err := core.NewTarget(o.Platform, o.Seed)
		if err != nil {
			return nil, err
		}
		app, mem, err := weakGeneration(o.App, o.Ranks, o.PerRankN, o.Steps, newSnapshotStore(o.Ranks, nil, anchors.tap))
		if err != nil {
			return nil, err
		}
		if _, err := tg.Run(core.JobSpec{
			Ranks: o.Ranks, RanksPerNode: o.RanksPerNode, App: app,
			SkipSteps: o.SkipSteps, MemPerRankGB: mem,
		}); err != nil {
			return nil, fmt.Errorf("bench: replay phase 1 (scenario re-run) failed: %w", err)
		}
	}

	line := anchors.commonLine()

	// Phase 2: resume a fresh fault-free world from the anchor line and
	// run it to the divergence step under a fresh journal.
	run := obs.NewRun()
	tg, err := core.NewTarget(o.Platform, o.Seed)
	if err != nil {
		return nil, err
	}
	rstore := newSnapshotStore(o.Ranks, nil, nil)
	for rank, blob := range anchors.blobsAt(line) {
		if blob != nil {
			rstore.put(rank, line, 0, blob)
		}
	}
	app, mem, err := weakGeneration(o.App, o.Ranks, o.PerRankN, divStep, rstore)
	if err != nil {
		return nil, err
	}
	rep, err := tg.Run(core.JobSpec{
		Ranks: o.Ranks, RanksPerNode: o.RanksPerNode, App: app,
		SkipSteps: o.SkipSteps, MemPerRankGB: mem, Obs: run,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: replay phase 2 (anchored re-run) failed: %w", err)
	}

	dump := &ReplayDump{
		App: o.App, Platform: o.Platform, Ranks: o.Ranks,
		AnchorStep: line, ColdStart: line == 0, DivStep: divStep,
		MaxVirtualS: virtualDuration(rep),
		PerRank:     make([]ReplayRankState, o.Ranks),
	}

	// The replay dogfoods the journal reader: phase 2's solve history is
	// read back from its own journal bytes. Writing the journal folds the
	// recorders into the metrics, so the high-water gauge is read after it.
	var jbuf bytes.Buffer
	if err := run.WriteJournal(&jbuf); err != nil {
		return nil, err
	}
	dump.MailboxHighWater = run.Metrics().Gauge("mp.mailbox_highwater").Value()
	evs, err := obs.ReadJournal(&jbuf)
	if err != nil {
		return nil, fmt.Errorf("bench: replay journal does not parse: %w", err)
	}
	for rank := range dump.PerRank {
		dump.PerRank[rank].Rank = rank
	}
	for _, ev := range evs {
		if ev.Kind != "solve" || ev.Rank < 0 || ev.Rank >= o.Ranks {
			continue
		}
		rs := &dump.PerRank[ev.Rank]
		rs.LastSolver = ev.Name
		rs.LastIters = ev.I1
		rs.LastResidual = ev.F1
		rs.Converged = ev.B
	}

	for rank := range dump.PerRank {
		rs := &dump.PerRank[rank]
		if rank < len(rep.PerRankSteps) {
			for _, pt := range rep.PerRankSteps[rank] {
				rs.ClockS += pt.Total()
			}
		}
		st, rerr := app.final(rank)
		if rerr != nil {
			return nil, fmt.Errorf("bench: replay checkpoint of rank %d: %w", rank, rerr)
		}
		rs.StepsDone = st.StepsDone
		rs.StateTime = st.Time
		var cur []float64
		for _, f := range app.sol.current {
			cur = append(cur, st.Fields[f]...)
		}
		rs.StateL2, rs.StateMax = stateNorms(cur)
	}
	return dump, nil
}

// stateNorms returns the ℓ2 and max-abs norms of v.
func stateNorms(v []float64) (l2, maxAbs float64) {
	for _, x := range v {
		l2 += float64(x * x)
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return math.Sqrt(l2), maxAbs
}

// FormatReplayDump renders the divergence-step state as plain text.
func FormatReplayDump(d *ReplayDump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint-anchored replay: %s on %s, %d ranks\n",
		strings.ToUpper(d.App), d.Platform, d.Ranks)
	if d.ColdStart {
		fmt.Fprintf(&b, "no common checkpoint at or before the divergence: replayed from scratch to step %d\n", d.DivStep)
	} else {
		fmt.Fprintf(&b, "resumed from the checkpoint after step %d, replayed to step %d\n", d.AnchorStep, d.DivStep)
	}
	fmt.Fprintf(&b, "replayed virtual time %.3fs, mailbox high-water %.0f\n\n", d.MaxVirtualS, d.MailboxHighWater)
	fmt.Fprintf(&b, "%4s %6s %10s %-10s %6s %12s %5s %13s %13s %8s\n",
		"rank", "steps", "clock(s)", "solver", "iters", "residual", "conv", "state-l2", "state-max", "t(pde)")
	for i := range d.PerRank {
		rs := &d.PerRank[i]
		conv := "no"
		if rs.Converged {
			conv = "yes"
		}
		fmt.Fprintf(&b, "%4d %6d %10.3f %-10s %6d %12.3e %5s %13.6e %13.6e %8.4f\n",
			rs.Rank, rs.StepsDone, rs.ClockS, rs.LastSolver, rs.LastIters,
			rs.LastResidual, conv, rs.StateL2, rs.StateMax, rs.StateTime)
	}
	return b.String()
}

// PointJournal runs one seeded weak-scaling point under a fresh observer
// and returns its journal bytes — the sweep report's journal producer.
func PointJournal(app, platform string, ranks int, o Options) ([]byte, error) {
	o = o.withDefaults()
	run := obs.NewRun()
	tg, err := core.NewTarget(platform, o.Seed)
	if err != nil {
		return nil, err
	}
	o.Obs = run
	spec, err := weakJob(app, ranks, o)
	if err != nil {
		return nil, err
	}
	if _, err := tg.Run(spec); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := run.WriteJournal(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
