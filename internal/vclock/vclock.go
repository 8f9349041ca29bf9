// Package vclock implements the virtual-time accounting that stands in for
// wall-clock measurement on the paper's physical platforms.
//
// The numerical applications in this repository execute for real: matrices
// are assembled, Krylov iterations run, and messages move between ranks. But
// the quantity the paper reports — wall-clock seconds on a 2012 Opteron or
// Xeon node behind a particular interconnect — cannot be measured here.
// Instead, every rank owns a Clock. Compute kernels report their operation
// counts (floating-point operations and bytes touched) and the clock converts
// them to seconds using the target platform's calibrated rate; the message
// passing layer (internal/mp) charges communication time from the network
// model (internal/netmodel). Per-phase times are accumulated so the harness
// can report assembly / preconditioner / solve splits exactly as Figure 4 of
// the paper does.
package vclock

import "fmt"

// Phase identifies which stage of the solver a charge belongs to. The phases
// mirror the paper's instrumentation of one time-step iteration.
type Phase int

const (
	// PhaseOther covers setup work outside the three measured kernels.
	PhaseOther Phase = iota
	// PhaseAssembly is matrix/vector assembly (paper step ii).
	PhaseAssembly
	// PhasePrecond is preconditioner construction (paper step iiia).
	PhasePrecond
	// PhaseSolve is the preconditioned iterative solve (paper step iiib).
	PhaseSolve
	numPhases
)

// String returns the short lower-case name used in report tables.
func (p Phase) String() string {
	switch p {
	case PhaseOther:
		return "other"
	case PhaseAssembly:
		return "assembly"
	case PhasePrecond:
		return "precond"
	case PhaseSolve:
		return "solve"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Phases lists the measured phases in report order.
var Phases = []Phase{PhaseAssembly, PhasePrecond, PhaseSolve, PhaseOther}

// ComputeRater converts an operation count into seconds of virtual time.
// Platforms implement this with their calibrated per-core rates.
type ComputeRater interface {
	// ComputeSeconds returns the time to execute flops floating point
	// operations while streaming bytes of memory traffic on one core.
	ComputeSeconds(flops, bytes float64) float64
}

// LinearRater is a simple additive roofline model: compute time is the sum
// of the arithmetic time (flops / FlopsPerSec) and the memory-traffic time
// (bytes / BytesPerSec). The platform catalog calibrates one per machine.
type LinearRater struct {
	// FlopsPerSec is the sustained per-core floating-point rate.
	FlopsPerSec float64
	// BytesPerSec is the sustained per-core memory bandwidth.
	BytesPerSec float64
}

// ComputeSeconds implements ComputeRater.
func (r LinearRater) ComputeSeconds(flops, bytes float64) float64 {
	var t float64
	if r.FlopsPerSec > 0 {
		t += flops / r.FlopsPerSec
	}
	if r.BytesPerSec > 0 {
		t += bytes / r.BytesPerSec
	}
	return t
}

// Clock tracks one rank's virtual time, split by phase and by kind
// (compute vs. communication). The zero value is unusable; use New.
type Clock struct {
	rater ComputeRater

	phase   Phase
	onPhase PhaseListener

	// now is the rank's current virtual time, maintained directly so that
	// AdvanceTo(t) lands on exactly t: message-arrival processing order
	// (which depends on goroutine scheduling) then cannot perturb the clock
	// by floating-point rounding, keeping runs bit-deterministic.
	now float64

	compute [numPhases]float64
	comm    [numPhases]float64

	flops    float64
	bytes    float64
	msgCount int64
	msgBytes int64
}

// New returns a clock that converts compute charges with rater.
func New(rater ComputeRater) *Clock {
	if rater == nil {
		panic("vclock: nil ComputeRater")
	}
	return &Clock{rater: rater}
}

// NewAt returns a clock whose virtual time starts at t0 with empty phase
// accounts — the clock of a rank resuming inside a shrunk world, which
// carries its absolute time across the re-formation without attributing the
// pre-shrink span to any phase (AdvanceTo would book it as communication).
func NewAt(rater ComputeRater, t0 float64) *Clock {
	c := New(rater)
	if t0 > 0 {
		c.now = t0
	}
	return c
}

// PhaseListener observes phase transitions. t is the clock's virtual time at
// the moment of the switch. The listener must not call back into the clock.
type PhaseListener func(t float64, from, to Phase)

// SetPhaseListener installs fn to be called on every phase change (nil
// removes it). The observability layer uses this so vclock need not depend
// on it.
func (c *Clock) SetPhaseListener(fn PhaseListener) { c.onPhase = fn }

// SetPhase selects the phase subsequent charges accrue to and returns the
// previous phase so callers can restore it.
func (c *Clock) SetPhase(p Phase) Phase {
	old := c.phase
	c.phase = p
	if c.onPhase != nil && p != old {
		c.onPhase(c.now, old, p)
	}
	return old
}

// ChargeCompute records flops floating-point operations and bytes of memory
// traffic in the current phase.
func (c *Clock) ChargeCompute(flops, bytes float64) {
	if flops < 0 || bytes < 0 {
		panic("vclock: negative compute charge")
	}
	c.flops += flops
	c.bytes += bytes
	s := c.rater.ComputeSeconds(flops, bytes)
	c.compute[c.phase] += s
	c.now += s
}

// ChargeComm records seconds of communication time for a message of the
// given payload size in the current phase. The seconds are computed by the
// fabric (netmodel); the clock only accumulates them.
func (c *Clock) ChargeComm(seconds float64, payloadBytes int) {
	if seconds < 0 {
		panic("vclock: negative comm charge")
	}
	c.comm[c.phase] += seconds
	c.now += seconds
	c.msgCount++
	c.msgBytes += int64(payloadBytes)
}

// Now returns the rank's current virtual time.
func (c *Clock) Now() float64 { return c.now }

// AdvanceTo moves the clock forward to exactly t (if t is in the future),
// attributing the idle gap to communication in the current phase. The
// message-passing layer uses this to model a rank blocking on a peer; the
// exact assignment keeps the clock independent of message-arrival order.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.comm[c.phase] += t - c.now
		c.now = t
	}
}

// Counters returns lifetime totals: floating point operations, compute bytes,
// message count and message payload bytes.
func (c *Clock) Counters() (flops, bytes float64, msgs, msgBytes int64) {
	return c.flops, c.bytes, c.msgCount, c.msgBytes
}

// Snapshot captures the per-phase totals of a clock at a point in time.
type Snapshot struct {
	Compute [numPhases]float64
	Comm    [numPhases]float64
}

// Snapshot returns the clock's current per-phase totals.
func (c *Clock) Snapshot() Snapshot {
	return Snapshot{Compute: c.compute, Comm: c.comm}
}

// Since returns per-phase elapsed virtual time between snapshot s and the
// clock's current state.
func (c *Clock) Since(s Snapshot) PhaseTimes {
	var pt PhaseTimes
	for i := Phase(0); i < numPhases; i++ {
		pt.Compute[i] = c.compute[i] - s.Compute[i]
		pt.Comm[i] = c.comm[i] - s.Comm[i]
	}
	return pt
}

// PhaseTimes is an elapsed-time breakdown by phase and kind.
type PhaseTimes struct {
	Compute [numPhases]float64
	Comm    [numPhases]float64
}

// Total returns the sum over all phases and kinds.
func (t PhaseTimes) Total() float64 {
	var sum float64
	for i := Phase(0); i < numPhases; i++ {
		sum += t.Compute[i] + t.Comm[i]
	}
	return sum
}

// Phase returns compute+comm elapsed time in phase p.
func (t PhaseTimes) Phase(p Phase) float64 {
	return t.Compute[p] + t.Comm[p]
}
