// Package obs is the obskind fixture: a miniature journal with the same
// Event shape the real observability layer uses.
package obs

// Event is one journal record; field order is the journal's column order.
type Event struct {
	T    float64
	Rank int
	Kind string
	Name string
	I1   int64
	F1   float64
}

// Sink collects events; nil and the zero value are both usable.
type Sink struct{ events []Event }

// Emit appends one record; nil-safe like the real API.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	s.events = append(s.events, e)
}

// EmitStep writes the "step" record.
func EmitStep(s *Sink, t float64, step int64) {
	s.Emit(Event{T: t, Kind: "step", I1: step})
}

// EmitStepAgain reuses another writer's kind.
func EmitStepAgain(s *Sink, t float64) {
	s.Emit(Event{T: t, Kind: "step"}) // want `journal kind "step" is already emitted by EmitStep`
}

// EmitPhase emits its kind from two branches: same writer, no finding.
func EmitPhase(s *Sink, t float64, up bool) {
	if up {
		s.Emit(Event{T: t, Kind: "phase", Name: "up"})
	} else {
		s.Emit(Event{T: t, Kind: "phase", Name: "down"})
	}
}

// AllowedMirror documents a sanctioned duplicate writer.
func AllowedMirror(s *Sink, t float64) {
	//heterolint:allow obskind replay mirror re-emits the original record
	s.Emit(Event{T: t, Kind: "step"})
}
