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

// merged returns all recorded events in the deterministic total order
// (T, recorder creation index, per-recorder sequence) and folds each
// recorder's local counters into the registry exactly once.
func (r *Run) merged() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rc := range r.recs {
		n += len(rc.events)
	}
	evs := make([]Event, 0, n)
	for _, rc := range r.recs {
		rc.fold(r.reg)
		evs = append(evs, rc.events...)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		if evs[i].recID != evs[j].recID {
			return evs[i].recID < evs[j].recID
		}
		return evs[i].seq < evs[j].seq
	})
	return evs
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
	for _, ev := range r.merged() {
		scratch = AppendEventLine(scratch[:0], &ev)
		bw.Write(scratch)
	}
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
	// queueIvals holds [arrival, receive] virtual-time intervals of
	// delivered messages; the mailbox-depth high-water is their maximum
	// overlap (computed at fold time).
	queueIvals []ival
	folded     bool
}

type ival struct{ s, e float64 }

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
	rc.run.reg.Histogram("krylov.iterations", IterBuckets).Observe(float64(iters))
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
	rc.run.reg.Histogram("halo.step_bytes", ByteBuckets).Observe(float64(db))
}

// QueueInterval records one delivered message's virtual residency interval
// [arrive, recv] in the receiver's mailbox. The fold computes the maximum
// overlap — the mailbox-depth high-water in virtual time, which unlike a
// wall-clock queue length does not depend on goroutine scheduling.
func (rc *Recorder) QueueInterval(arrive, recv float64) {
	if rc == nil {
		return
	}
	rc.queueIvals = append(rc.queueIvals, ival{arrive, recv})
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
	if hw := maxOverlap(rc.queueIvals); hw > 0 {
		reg.Gauge("mp.mailbox_highwater").Max(float64(hw))
	}
}

// maxOverlap returns the maximum number of simultaneously-open intervals.
// Ties between an interval closing and another opening at the same instant
// count both as open (a message arriving exactly when another is received
// was momentarily queued behind it).
func maxOverlap(ivals []ival) int {
	if len(ivals) == 0 {
		return 0
	}
	starts := make([]float64, len(ivals))
	ends := make([]float64, len(ivals))
	for i, iv := range ivals {
		starts[i] = iv.s
		ends[i] = iv.e
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	depth, maxDepth := 0, 0
	j := 0
	for i := 0; i < len(starts); i++ {
		for j < len(ends) && ends[j] < starts[i] {
			depth--
			j++
		}
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return maxDepth
}
