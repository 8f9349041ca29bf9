// Package elastic is the worldconsume fixture: recovery orchestration in
// the shapes the real bench code uses — straight-line use-after-consume,
// selector-path receivers, the sanctioned swap-in of the replacement, and
// branch-local consumes the analyzer must not over-flag.
package elastic

import "mp"

// Runner owns a world through a struct field, like the bench runners.
type Runner struct{ World *mp.World }

// UseAfterReform keeps talking to the dead world.
func UseAfterReform(w *mp.World) {
	res, err := w.Reform(nil, nil, nil, 0)
	_ = err
	w.Barrier() // want `w is used after Reform consumed it`
	_ = res
}

// FieldUseAfter tracks a selector path, not just a plain identifier.
func FieldUseAfter(r *Runner, doomed []int) {
	sr, _ := r.World.Reform(doomed, nil, nil, 0)
	r.World.Send(0) // want `r\.World is used after Reform consumed it`
	_ = sr
}

// JoinConsumes: a re-formation that adds nodes consumes its receiver too.
func JoinConsumes(w *mp.World) {
	g, _ := w.Reform(nil, []int{1}, []int{0}, 5)
	w.Send(0) // want `w is used after Reform consumed it`
	_ = g
}

// DoubleConsume: the second reshape is itself a use of the dead world.
func DoubleConsume(w *mp.World) {
	_, _ = w.Reform(nil, nil, nil, 0)
	_, _ = w.Reform(nil, nil, nil, 0) // want `w is used after Reform consumed it`
}

// LeakClosure captures the dead world in a closure: still a use.
func LeakClosure(w *mp.World) func() {
	_, _ = w.Reform(nil, nil, nil, 0)
	return func() { w.Barrier() } // want `w is used after Reform consumed it`
}

// SwapsInReplacement is the sanctioned pattern: reassigning the tracked
// path ends the poisoned window.
func SwapsInReplacement(r *Runner, doomed []int) {
	sr, err := r.World.Reform(doomed, nil, nil, 0)
	if err != nil {
		return
	}
	r.World = sr.World
	r.World.Send(0)
}

// LocalSwap reassigns the plain identifier.
func LocalSwap(w *mp.World) {
	res, _ := w.Reform(nil, nil, nil, 0)
	w = res.World
	w.Barrier()
}

// BranchConsume re-forms on one arm only: the join-point use depends on
// which path executed, so the flow-light scan stays quiet by design.
func BranchConsume(w *mp.World, degraded bool) {
	if degraded {
		res, _ := w.Reform(nil, nil, nil, 0)
		_ = res
	} else {
		w.Send(1)
	}
	w.Barrier()
}

// OtherWorld is untouched: consuming one world says nothing about another.
func OtherWorld(w, spare *mp.World) {
	_, _ = w.Reform(nil, nil, nil, 0)
	spare.Barrier()
}

// AllowHatch documents a deliberate post-consume touch.
func AllowHatch(w *mp.World) {
	_, _ = w.Reform(nil, nil, nil, 0)
	//heterolint:allow worldconsume read-only autopsy of the dead world's topology
	w.Barrier()
}
