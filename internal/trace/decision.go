package trace

import (
	"fmt"
	"strings"
	"sync"

	"heterohpc/internal/obs"
)

// Decision is one supervisor action worth auditing after a faulted run:
// a failure observation, a backoff, a re-provisioning, a restore, a
// degradation. AtS is the virtual time the decision applies to.
type Decision struct {
	// AtS is the decision's virtual time in seconds.
	AtS float64
	// Kind labels the decision ("failure", "backoff", "provision",
	// "restore", "degrade", "complete", ...).
	Kind string
	// Detail is the human-readable account.
	Detail string
}

// String renders one decision line.
func (d Decision) String() string {
	return fmt.Sprintf("t=%8.1fs  %-10s %s", d.AtS, d.Kind, d.Detail)
}

// Recorder accumulates supervisor decisions. Safe for concurrent use; the
// zero value is ready.
type Recorder struct {
	mu  sync.Mutex
	ds  []Decision
	obs *obs.Recorder
}

// Observe mirrors every subsequent decision into run's global journal as a
// kind/detail event at the decision's virtual time. A nil run detaches the
// mirror.
func (rec *Recorder) Observe(run *obs.Run) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.obs = run.Global()
}

// Record appends a decision.
func (rec *Recorder) Record(atS float64, kind, format string, args ...any) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	d := Decision{AtS: atS, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	rec.ds = append(rec.ds, d)
	rec.obs.EventAt(d.AtS, d.Kind, d.Detail)
}

// Decisions returns a copy of the log in record order.
func (rec *Recorder) Decisions() []Decision {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Decision(nil), rec.ds...)
}

// FormatDecisions renders a decision log as an indented block for reports.
func FormatDecisions(ds []Decision) string {
	if len(ds) == 0 {
		return "  (no decisions recorded)"
	}
	var b strings.Builder
	for i, d := range ds {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("  ")
		b.WriteString(d.String())
	}
	return b.String()
}
