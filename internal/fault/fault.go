// Package fault generates deterministic, seeded fault-injection plans for
// the platform models and classifies the failures they produce.
//
// The paper's experience is that heterogeneous targets fail in
// platform-specific ways: ellipse kills jobs above 512 ranks, lagrange
// aborts above 343 on an InfiniBand volume cap, and EC2 spot assemblies
// are "unpredictable" — "we never succeeded in establishing a full 63-host
// configuration of spot request instances". A Plan turns those experiences
// into reproducible experiments: node crashes at virtual times, EC2-style
// spot preemptions with a two-minute notice, and transient link
// degradation (straggler nodes), all drawn from a seeded stream so equal
// seeds give equal failure schedules. Plans arm the kill switches of
// internal/mp worlds; the supervisor in internal/bench consumes them.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"heterohpc/internal/mp"
	"heterohpc/internal/sched"
	"heterohpc/internal/stats"
)

// Kind is the failure mode of one planned event.
type Kind int

const (
	// KindCrash is an unannounced node failure (hardware, kernel, fabric).
	KindCrash Kind = iota
	// KindPreempt is an EC2 spot preemption: the market reclaims the
	// instance NoticeLeadS virtual seconds after issuing a notice.
	KindPreempt
	// KindDegrade is a transient link degradation / straggler window: the
	// node survives but its communication runs Factor× slower.
	KindDegrade
)

// String returns the report label of the kind.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindPreempt:
		return "preemption"
	case KindDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NoticeLeadS is the EC2 spot two-minute interruption notice, in virtual
// seconds.
const NoticeLeadS = 120.0

// Event is one planned failure.
type Event struct {
	Kind Kind
	// Node is the target node index within the job topology.
	Node int
	// At is the virtual time (seconds since job start) the failure takes
	// effect.
	At float64
	// NoticeAt is when the preemption notice is issued (At − NoticeLeadS,
	// clamped to 0). Zero-valued for other kinds.
	NoticeAt float64
	// Until ends a degradation window.
	Until float64
	// Factor is the degradation communication-time multiplier.
	Factor float64
}

// String renders the event for decision logs.
func (e Event) String() string {
	switch e.Kind {
	case KindPreempt:
		return fmt.Sprintf("preemption of node %d at t=%.1fs (notice at t=%.1fs)", e.Node, e.At, e.NoticeAt)
	case KindDegrade:
		return fmt.Sprintf("degrade node %d ×%.1f over t=[%.1fs,%.1fs)", e.Node, e.Factor, e.At, e.Until)
	default:
		return fmt.Sprintf("crash of node %d at t=%.1fs", e.Node, e.At)
	}
}

// Plan is a seeded failure schedule, sorted by At.
type Plan struct {
	Seed   uint64
	Events []Event
}

// Spec parameterises plan generation.
type Spec struct {
	// Seed drives every random draw; equal seeds give equal plans.
	Seed uint64
	// Nodes is the job's node count; event targets are drawn from it.
	Nodes int
	// Horizon is the virtual window (seconds) failures land in. Events are
	// placed in [0.05, 0.95]·Horizon so they neither fire before the first
	// checkpoint can exist nor after the run would have finished.
	Horizon float64
	// Crashes, Preemptions and Degradations count the events of each kind.
	Crashes      int
	Preemptions  int
	Degradations int
	// SpotNodes restricts preemptions to these node indices (the spot
	// slice of a mixed assembly); nil allows any node.
	SpotNodes []int
	// DegradeFactor is the straggler slow-down (default 4×).
	DegradeFactor float64
}

// New generates a deterministic plan from spec.
func New(spec Spec) (*Plan, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("fault: plan over %d nodes", spec.Nodes)
	}
	if spec.Horizon <= 0 {
		return nil, fmt.Errorf("fault: non-positive horizon %v", spec.Horizon)
	}
	if spec.Crashes < 0 || spec.Preemptions < 0 || spec.Degradations < 0 {
		return nil, fmt.Errorf("fault: negative event count")
	}
	if spec.DegradeFactor == 0 {
		spec.DegradeFactor = 4
	}
	if spec.DegradeFactor <= 1 {
		return nil, fmt.Errorf("fault: degrade factor %v must exceed 1", spec.DegradeFactor)
	}
	for _, n := range spec.SpotNodes {
		if n < 0 || n >= spec.Nodes {
			return nil, fmt.Errorf("fault: spot node %d of %d", n, spec.Nodes)
		}
	}
	rng := stats.NewRNG(spec.Seed)
	at := func() float64 { return spec.Horizon * rng.Range(0.05, 0.95) }
	p := &Plan{Seed: spec.Seed}
	for i := 0; i < spec.Crashes; i++ {
		p.Events = append(p.Events, Event{Kind: KindCrash, Node: rng.Intn(spec.Nodes), At: at()})
	}
	for i := 0; i < spec.Preemptions; i++ {
		node := rng.Intn(spec.Nodes)
		if len(spec.SpotNodes) > 0 {
			node = spec.SpotNodes[rng.Intn(len(spec.SpotNodes))]
		}
		t := at()
		notice := t - NoticeLeadS
		if notice < 0 {
			notice = 0
		}
		p.Events = append(p.Events, Event{Kind: KindPreempt, Node: node, At: t, NoticeAt: notice})
	}
	for i := 0; i < spec.Degradations; i++ {
		from := at()
		p.Events = append(p.Events, Event{
			Kind: KindDegrade, Node: rng.Intn(spec.Nodes),
			At: from, Until: from + spec.Horizon*rng.Range(0.1, 0.3),
			Factor: spec.DegradeFactor,
		})
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}

// Failures returns the fatal events (crashes and preemptions) in At order.
func (p *Plan) Failures() []Event {
	var out []Event
	for _, e := range p.Events {
		if e.Kind != KindDegrade {
			out = append(out, e)
		}
	}
	return out
}

// Degradations returns the non-fatal straggler windows.
func (p *Plan) Degradations() []Event {
	var out []Event
	for _, e := range p.Events {
		if e.Kind == KindDegrade {
			out = append(out, e)
		}
	}
	return out
}

// String renders the plan for reports.
func (p *Plan) String() string {
	if len(p.Events) == 0 {
		return fmt.Sprintf("fault plan (seed %d): no events", p.Seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan (seed %d):", p.Seed)
	for _, e := range p.Events {
		fmt.Fprintf(&b, "\n  %s", e)
	}
	return b.String()
}

// Arm schedules events on a world. Events targeting nodes beyond the
// world's topology are skipped (a degraded job has fewer nodes than the
// plan was drawn for); fatal events reuse the world's crash switch — a
// preemption and a crash differ in recovery handling, not in how the job
// dies.
func Arm(w *mp.World, events []Event) error {
	nnodes := w.Topology().NNodes()
	for _, e := range events {
		if e.Node >= nnodes {
			continue
		}
		var err error
		switch e.Kind {
		case KindCrash, KindPreempt:
			err = w.ScheduleNodeCrash(e.Node, e.At)
		case KindDegrade:
			err = w.ScheduleDegrade(e.Node, e.At, e.Until, e.Factor)
		default:
			err = fmt.Errorf("fault: unknown event kind %d", e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Remap translates planned events into a renumbered node space — the
// survivor numbering a world shrink produces. nodeMap[old] gives the new
// node index, or -1 for a node that no longer exists; events aimed at
// vanished or out-of-range nodes are dropped. The input is not mutated.
func Remap(events []Event, nodeMap []int) []Event {
	var out []Event
	for _, e := range events {
		if e.Node < 0 || e.Node >= len(nodeMap) || nodeMap[e.Node] < 0 {
			continue
		}
		e.Node = nodeMap[e.Node]
		out = append(out, e)
	}
	return out
}

// Class is the supervisor's coarse failure classification, which decides
// the recovery strategy.
type Class int

const (
	// ClassNone: no failure.
	ClassNone Class = iota
	// ClassNodeLoss: a node died mid-run (crash or preemption) — restore
	// from checkpoint on replacement or surviving capacity.
	ClassNodeLoss
	// ClassCapacity: the platform refused to launch at this scale
	// (launcher limits, IB volume caps, machine size) — retrying the same
	// size is futile; degrade to fewer ranks.
	ClassCapacity
	// ClassResource: per-rank resources insufficient (memory) — also
	// unfixable by retry at the same shape.
	ClassResource
	// ClassApp: the application itself failed (solver divergence, bad
	// config) — not recoverable by the supervisor.
	ClassApp
)

// String returns the report label of the class.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassNodeLoss:
		return "node-loss"
	case ClassCapacity:
		return "capacity"
	case ClassResource:
		return "resource"
	case ClassApp:
		return "application"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classify maps an error from a run attempt to its recovery class.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, mp.ErrRankDead):
		return ClassNodeLoss
	case errors.Is(err, sched.ErrLaunchLimit),
		errors.Is(err, sched.ErrIBVolumeCap),
		errors.Is(err, sched.ErrTooLarge):
		return ClassCapacity
	case errors.Is(err, sched.ErrInsufficientMemory):
		return ClassResource
	default:
		return ClassApp
	}
}

// Backoff computes capped exponential backoff with deterministic jitter:
// attempt k waits min(Cap, Base·2ᵏ) scaled by a uniform [0.5, 1.5) draw
// from a seeded stream.
type Backoff struct {
	// BaseS is the first delay (seconds); CapS the ceiling.
	BaseS, CapS float64
	rng         *stats.RNG
	attempt     int
}

// NewBackoff returns a seeded backoff schedule.
func NewBackoff(baseS, capS float64, seed uint64) *Backoff {
	if baseS <= 0 {
		baseS = 15
	}
	if capS < baseS {
		capS = baseS * 16
	}
	return &Backoff{BaseS: baseS, CapS: capS, rng: stats.NewRNG(seed)}
}

// Next returns the next delay in seconds and advances the schedule.
func (b *Backoff) Next() float64 {
	d := b.BaseS
	for i := 0; i < b.attempt && d < b.CapS; i++ {
		d *= 2
	}
	if d > b.CapS {
		d = b.CapS
	}
	b.attempt++
	return d * b.rng.Range(0.5, 1.5)
}
