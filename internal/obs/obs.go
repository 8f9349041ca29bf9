// Package obs is the run-observability layer: a structured JSONL journal of
// typed events plus a metrics registry (counters, max-gauges, fixed-bucket
// histograms), both stamped exclusively with virtual time so that two runs
// from the same seed produce byte-identical output.
//
// The paper's contribution is measurement — per-phase times, cost ledgers
// and failure narratives across four heterogeneous platforms — and this
// package is the machine-readable substrate for that kind of reporting:
// instead of only end-of-run tables, an observed run leaves a journal of
// phase transitions, per-step solver convergence, halo-exchange traffic,
// payload traffic, checkpoint writes/restores, recovery
// decisions and spot-market ticks.
//
// Determinism contract: nothing in this package reads the wall clock or
// process-global randomness (pinned by TestJournalDeterministicMergeOrder
// and cmd/heterobench's TestJournalBitDeterminism/TestFaultsJournalDeterminism).
// Event timestamps come from vclock-backed Clocks or explicit virtual
// times; metric aggregations are restricted to order-independent
// operations (integer counter adds, maxima, integer bucket counts) so that
// goroutine scheduling across rank recorders cannot perturb the output.
// Journal merge order is the deterministic total order (T, recorder
// creation index, per-recorder sequence).
//
// The disabled state is free: a nil *Run, nil *Recorder and nil metric
// handles are valid no-op receivers, so instrumented hot paths (message
// sends, halo exchanges, solver loops) stay zero-allocation when no
// observer is attached — asserted by the perf harness's 0 allocs/op
// benchmarks.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Clock is the virtual-time source events are stamped with; vclock.Clock
// satisfies it. The package deliberately depends on the interface, not on
// internal/vclock, so it stays dependency-free.
type Clock interface {
	Now() float64
}

// Event is one journal record. Kind identifies the event type; Name and the
// numbered slots carry kind-specific payloads (see the Recorder emitters
// for each kind's schema). Zero-valued optional fields are omitted from the
// JSONL encoding.
type Event struct {
	// T is the event's virtual time in seconds.
	T float64
	// Rank is the emitting rank, or -1 for global (supervisor/market)
	// events.
	Rank int
	// Kind is the event type ("phase", "solve", "step", "halo", "pool",
	// "ckpt-write", "ckpt-restore", "spot-tick", "preempt-notice",
	// "world-grow", "migrate-decision", "arbiter-coalesce",
	// "provision-retry", or a supervisor decision kind).
	Kind string
	// Name is the kind-specific subject (phase name, solver name, decision
	// detail).
	Name string
	// I1, I2, I3 are kind-specific integer payloads.
	I1, I2, I3 int64
	// F1, F2 are kind-specific float payloads.
	F1, F2 float64
	// B is a kind-specific flag (e.g. solver convergence).
	B bool

	// recID/seq define the deterministic merge order for identical
	// timestamps: recorder creation index, then per-recorder sequence.
	recID int
	seq   int
}

// Run collects the journal and metrics of one observed run (which may span
// several worlds: a supervised run re-forms worlds after failures and every
// attempt records into the same Run). Create one with NewRun; a nil *Run is
// a valid no-op sink.
//
// Recorder creation (NewRecorder, Global) must happen on one goroutine —
// in practice the thread that builds worlds. Individual recorders are then
// single-writer: each belongs to one rank goroutine (or to the supervisor).
// WriteJournal/WriteMetrics must only be called after all observed work has
// completed.
type Run struct {
	mu     sync.Mutex
	recs   []*Recorder
	reg    *Registry
	global *Recorder
}

// NewRun returns an empty observability sink.
func NewRun() *Run {
	return &Run{reg: newRegistry()}
}

// Metrics returns the run's metric registry (nil for a nil Run; the
// registry's accessors are nil-safe in turn).
func (r *Run) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// NewRecorder registers a per-rank event recorder whose events are stamped
// from clk. Returns nil (a valid no-op recorder) when r is nil.
func (r *Run) NewRecorder(rank int, clk Clock) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rc := &Recorder{run: r, rank: rank, clk: clk, id: len(r.recs)}
	r.recs = append(r.recs, rc)
	return rc
}

// Global returns the run's shared rank −1 recorder for supervisor, market
// and world-level events. Its events carry explicit virtual times (EventAt
// and friends); the first call creates it.
func (r *Run) Global() *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.global == nil {
		r.global = &Recorder{run: r, rank: -1, id: len(r.recs)}
		r.recs = append(r.recs, r.global)
	}
	return r.global
}

// eachEvent calls fn with every recorded event in the deterministic total
// order (T, recorder creation index, per-recorder sequence) and folds each
// recorder's local counters into the registry exactly once. It merges the
// recorders' streams in place: a stream is already in order unless its
// events carry explicit times out of sequence, and only such a stream is
// sorted first.
func (r *Run) eachEvent(fn func(*Event)) {
	r.mu.Lock()
	// heads is a min-heap of the streams with events left, keyed on each
	// one's first event.
	heads := make([][]Event, 0, len(r.recs))
	for _, rc := range r.recs {
		rc.fold(r.reg)
		evs := rc.events
		if len(evs) == 0 {
			continue
		}
		less := func(i, j int) bool { return before(&evs[i], &evs[j]) }
		if !sort.SliceIsSorted(evs, less) {
			sort.Slice(evs, less)
		}
		heads = append(heads, evs)
	}
	r.mu.Unlock()
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	for len(heads) > 0 {
		fn(&heads[0][0])
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			last := len(heads) - 1
			heads[0], heads = heads[last], heads[:last]
		}
		siftDown(heads, 0)
	}
}

// before is the journal order: (T, recorder creation index, per-recorder
// sequence), a strict total order on one run's events.
func before(a, b *Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.recID != b.recID {
		return a.recID < b.recID
	}
	return a.seq < b.seq
}

// siftDown restores the heap order of heads below i.
func siftDown(heads [][]Event, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(heads) && before(&heads[c][0], &heads[least][0]) {
				least = c
			}
		}
		if least == i {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}

// WriteJournal writes the merged journal as JSONL, one event per line.
// Safe to call on a nil Run (writes nothing). Must only be called after
// all observed work has completed.
func (r *Run) WriteJournal(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	r.eachEvent(func(ev *Event) {
		scratch = AppendEventLine(scratch[:0], ev)
		bw.Write(scratch)
	})
	return bw.Flush()
}

// WriteMetrics writes the registry as deterministic JSON (sorted names).
// Safe to call on a nil Run. Must only be called after all observed work
// has completed; it folds outstanding recorder counters first.
func (r *Run) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	for _, rc := range r.recs {
		rc.fold(r.reg)
	}
	r.mu.Unlock()
	return r.reg.write(w)
}

// Recorder buffers one event stream: a rank's (bound to its virtual clock)
// or the global supervisor stream (explicit timestamps). All methods are
// no-ops on a nil receiver, which is how disabled observability stays free
// on hot paths. A Recorder is single-writer: only its owning goroutine may
// call its methods.
type Recorder struct {
	run  *Run
	rank int
	id   int
	clk  Clock
	seq  int

	events []Event

	// Local counters, folded into the registry at write time so hot paths
	// never touch shared atomics.
	msgs, msgBytes   int64
	haloN, haloBytes int64
	// haloMark* hold the counter values at the last StepHalo emission, so
	// per-step halo events carry deltas.
	haloMarkN, haloMarkBytes int64
	// iterHist and haloHist tally the krylov.iterations and
	// halo.step_bytes observations per bucket (nil until the first one).
	iterHist, haloHist []int64
	// stairs is the mailbox-depth fold of the QueueInterval calls so far:
	// the suffix maxima of the open-message count over the interval ends,
	// ends ascending and counts strictly descending (see QueueInterval).
	stairs []stair
	folded bool
}

// stair is one suffix maximum of a rank's mailbox depth: n of the recorded
// residency intervals contain the virtual instant x, an interval's end, and
// no later end is contained in as many.
type stair struct {
	x float64
	n int
}

func (rc *Recorder) now() float64 {
	if rc.clk != nil {
		return rc.clk.Now()
	}
	return 0
}

func (rc *Recorder) emit(ev Event) {
	ev.Rank = rc.rank
	ev.recID = rc.id
	ev.seq = rc.seq
	rc.seq++
	rc.events = append(rc.events, ev)
}

// EventAt records a kind/name event at an explicit virtual time — the
// supervisor-decision form (kind = decision kind, name = detail).
func (rc *Recorder) EventAt(t float64, kind, name string) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: kind, Name: name})
}

// Phase records a phase transition at virtual time t: kind "phase", name =
// the phase entered.
func (rc *Recorder) Phase(t float64, to string) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "phase", Name: to})
}

// Step records the completion of solver time step (1-based): kind "step",
// I1 = step.
func (rc *Recorder) Step(step int) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: rc.now(), Kind: "step", I1: int64(step)})
}

// Solve records one linear solve: kind "solve", name = solver, I1 =
// iterations, F1 = final relative residual, B = converged. It also feeds
// the "krylov.iterations" histogram.
func (rc *Recorder) Solve(solver string, iters int, residual float64, converged bool) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: rc.now(), Kind: "solve", Name: solver,
		I1: int64(iters), F1: residual, B: converged})
	rc.iterHist = tally(rc.iterHist, IterBuckets, float64(iters))
}

// Checkpoint records a checkpoint write or restore: kind "ckpt-write" or
// "ckpt-restore", I1 = step, I2 = serialized bytes (0 when unknown at the
// recording site).
func (rc *Recorder) Checkpoint(kind string, step int, bytes int64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: rc.now(), Kind: kind, I1: int64(step), I2: bytes})
}

// SpotTick records a spot-market price tick at market time t: kind
// "spot-tick", F1 = clearing price.
func (rc *Recorder) SpotTick(t, price float64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "spot-tick", F1: price})
}

// Preemption records a spot interruption notice at market time t: kind
// "preempt-notice", I1 = node, F1 = outbidding price, F2 = reclaim time.
func (rc *Recorder) Preemption(t float64, node int, price, reclaimAt float64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "preempt-notice", I1: int64(node), F1: price, F2: reclaimAt})
}

// WorldGrow records a world re-formation that added capacity at virtual
// time t: kind "world-grow", I1 = rank count before, I2 = rank count after,
// I3 = the first appended node index.
func (rc *Recorder) WorldGrow(t float64, fromRanks, toRanks, newNode int) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "world-grow",
		I1: int64(fromRanks), I2: int64(toRanks), I3: int64(newNode)})
}

// MigrateDecision records the elasticity driver's per-event verdict at
// virtual time t: kind "migrate-decision", name = the chosen verb
// ("migrate", "shrink" or "restart"), F1 = the notice window in virtual
// seconds (0 when the event carried no notice), F2 = the priced
// notice-window evacuation cost.
func (rc *Recorder) MigrateDecision(t float64, verb string, windowS, copyCostS float64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "migrate-decision", Name: verb, F1: windowS, F2: copyCostS})
}

// ArbiterCoalesce records the recovery arbiter folding a correlated group
// of fatal events into one recovery point at virtual time t: kind
// "arbiter-coalesce", Name = the group's verb, I1 = doomed nodes in the
// group, I2 = events folded beyond the one that poisoned the world, I3 =
// replacement re-acquisitions forced by cascades. Only coalesced groups
// emit it, so single-event recoveries journal exactly as before.
func (rc *Recorder) ArbiterCoalesce(t float64, verb string, doomed, folded, replans int) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "arbiter-coalesce", Name: verb,
		I1: int64(doomed), I2: int64(folded), I3: int64(replans)})
}

// ProvisionRetry records one autoscaler re-provisioning attempt hitting
// market exhaustion and backing off, at virtual time t (after the delay):
// kind "provision-retry", I1 = acquisition attempt number, I2 = instances
// acquired so far, I3 = instances wanted, F1 = the backoff delay in
// virtual seconds.
func (rc *Recorder) ProvisionRetry(t float64, attempt, got, want int, delayS float64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "provision-retry",
		I1: int64(attempt), I2: int64(got), I3: int64(want), F1: delayS})
}

// PoolStats records one world's payload traffic at virtual time t: kind
// "pool", I1 = payloads drawn, I2 = payloads returned, counted as the draws
// from and returns to the payload pool the transport once had (mp.Rank).
// Both totals are pure functions of the deterministic message sequence.
// gets − puts is the number of payloads whose ownership passed to the
// application.
func (rc *Recorder) PoolStats(t float64, gets, puts int64) {
	if rc == nil {
		return
	}
	rc.emit(Event{T: t, Kind: "pool", I1: gets, I2: puts})
}

// CountMsg counts one sent message of payloadBytes towards the rank's
// traffic counters (folded into "mp.messages"/"mp.message_bytes").
func (rc *Recorder) CountMsg(payloadBytes int) {
	if rc == nil {
		return
	}
	rc.msgs++
	rc.msgBytes += int64(payloadBytes)
}

// CountHalo counts one ghost-exchange of the given total sent bytes
// (folded into "halo.exchanges"/"halo.bytes" and surfaced per step by
// StepHalo).
func (rc *Recorder) CountHalo(bytes int) {
	if rc == nil {
		return
	}
	rc.haloN++
	rc.haloBytes += int64(bytes)
}

// StepHalo emits the halo traffic accumulated since the previous StepHalo
// as one event: kind "halo", I1 = step, I2 = exchanges, I3 = bytes. Steps
// without halo traffic emit nothing.
func (rc *Recorder) StepHalo(step int) {
	if rc == nil {
		return
	}
	dn, db := rc.haloN-rc.haloMarkN, rc.haloBytes-rc.haloMarkBytes
	if dn == 0 {
		return
	}
	rc.haloMarkN, rc.haloMarkBytes = rc.haloN, rc.haloBytes
	rc.emit(Event{T: rc.now(), Kind: "halo", I1: int64(step), I2: dn, I3: db})
	rc.haloHist = tally(rc.haloHist, ByteBuckets, float64(db))
}

// QueueInterval records one delivered message's virtual residency interval
// [arrive, recv] in the receiver's mailbox or link slot. The fold reports
// their maximum overlap — the mailbox-depth high-water in virtual time,
// which unlike a wall-clock queue length does not depend on goroutine
// scheduling. An interval closing at t and another opening at t both count
// as open at t.
//
// Calls must come in receive order: recv is the rank clock's reading after
// the receive, so it is at least arrive and at least the previous call's
// recv. A call that breaks the order panics. The order is what keeps the
// fold in O(high-water) memory: a later interval covers an earlier end x
// exactly when its arrive is at most x, so an end whose count some later
// end matches can never hold the maximum again, and is dropped.
func (rc *Recorder) QueueInterval(arrive, recv float64) {
	if rc == nil {
		return
	}
	st := rc.stairs
	if recv < arrive || len(st) > 0 && recv < st[len(st)-1].x {
		panic(fmt.Sprintf("obs: rank %d queue interval [%g, %g] out of receive order", rc.rank, arrive, recv))
	}
	if len(st) == 0 || recv > st[len(st)-1].x {
		st = append(st, stair{x: recv})
	}
	k := len(st)
	for k > 0 && st[k-1].x >= arrive {
		k--
		st[k].n++
	}
	// Counts descended by at least one before the increment, so only the
	// stair just left of it can have lost its lead.
	if k > 0 && st[k].n >= st[k-1].n {
		st = append(st[:k-1], st[k:]...)
	}
	rc.stairs = st
}

// queueHighWater is the most recorded intervals ever open at one instant:
// the first stair's count, which never falls.
func (rc *Recorder) queueHighWater() int {
	if len(rc.stairs) == 0 {
		return 0
	}
	return rc.stairs[0].n
}

// fold merges the recorder's local counters into the registry (once).
func (rc *Recorder) fold(reg *Registry) {
	if rc.folded {
		return
	}
	rc.folded = true
	reg.Counter("mp.messages").Add(rc.msgs)
	reg.Counter("mp.message_bytes").Add(rc.msgBytes)
	reg.Counter("halo.exchanges").Add(rc.haloN)
	reg.Counter("halo.bytes").Add(rc.haloBytes)
	reg.addCounts("krylov.iterations", IterBuckets, rc.iterHist)
	reg.addCounts("halo.step_bytes", ByteBuckets, rc.haloHist)
	// mp.mailbox_highwater is the most messages any one rank held arrived
	// but not yet received at one virtual instant, counting those waiting in
	// a link slot as well as those in the mailbox.
	if hw := rc.queueHighWater(); hw > 0 {
		reg.Gauge("mp.mailbox_highwater").Max(float64(hw))
	}
}

// tally counts v into its bucket of bounds, making the counts on first use.
func tally(counts []int64, bounds []float64, v float64) []int64 {
	if counts == nil {
		counts = make([]int64, len(bounds)+1)
	}
	counts[sort.SearchFloat64s(bounds, v)]++
	return counts
}
