package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/vclock"
)

func TestWriteChromeStructure(t *testing.T) {
	mk := func(a, s float64) vclock.PhaseTimes {
		var pt vclock.PhaseTimes
		pt.Compute[vclock.PhaseAssembly] = a
		pt.Comm[vclock.PhaseSolve] = s
		return pt
	}
	perRank := [][]vclock.PhaseTimes{
		{mk(0.1, 0.2), mk(0.1, 0.3)},
		{mk(0.2, 0.1), mk(0.2, 0.1)},
	}
	var b strings.Builder
	if err := WriteChrome(&b, "test-job", perRank); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 ranks × 2 steps × 2 nonzero phases.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	// Events on one rank must be non-overlapping and ordered.
	var lastEnd float64
	for _, e := range doc.TraceEvents {
		if e.Tid != 0 {
			continue
		}
		if e.Ts < lastEnd-1e-9 {
			t.Fatalf("overlapping events on rank 0 at ts=%v", e.Ts)
		}
		lastEnd = e.Ts + e.Dur
		if e.Ph != "X" {
			t.Fatalf("event phase %q", e.Ph)
		}
	}
	// Total duration on rank 0: (0.1+0.2 + 0.1+0.3) s = 0.7e6 µs.
	if lastEnd < 0.699e6 || lastEnd > 0.701e6 {
		t.Fatalf("rank 0 timeline ends at %v µs, want 0.7e6", lastEnd)
	}
}

func TestWriteChromeValidation(t *testing.T) {
	var b strings.Builder
	if err := WriteChrome(&b, "x", nil); err == nil {
		t.Error("empty input accepted")
	}
	ragged := [][]vclock.PhaseTimes{make([]vclock.PhaseTimes, 2), make([]vclock.PhaseTimes, 1)}
	if err := WriteChrome(&b, "x", ragged); err == nil {
		t.Error("ragged input accepted")
	}
}

// End-to-end: a real report's per-rank data renders to a loadable trace.
func TestWriteChromeFromReport(t *testing.T) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.WeakRD(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tg.Run(core.JobSpec{Ranks: 8, App: app})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteChrome(&b, "rd-on-ec2", rep.PerRankSteps); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("invalid JSON")
	}
	if !strings.Contains(b.String(), `"assembly"`) || !strings.Contains(b.String(), `"solve"`) {
		t.Fatal("missing phase names")
	}
}

func TestRecorder(t *testing.T) {
	var rec Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec.Record(float64(i), "failure", "node %d died", i)
		}(i)
	}
	wg.Wait()
	ds := rec.Decisions()
	if len(ds) != 8 {
		t.Fatalf("%d decisions, want 8", len(ds))
	}
	if s := FormatDecisions(ds); !strings.Contains(s, "failure") {
		t.Errorf("format lacks kind: %q", s)
	}
	if FormatDecisions(nil) == "" {
		t.Error("empty recorder formats to nothing")
	}
}

func TestWriteChromeWithDecisionsOverlay(t *testing.T) {
	var pt vclock.PhaseTimes
	pt.Compute[vclock.PhaseAssembly] = 0.5
	perRank := [][]vclock.PhaseTimes{{pt}}
	decisions := []Decision{
		{AtS: 0.25, Kind: "failure", Detail: "crash killed node 1"},
		{AtS: 0.25, Kind: "shrink", Detail: "world shrunk 8 -> 6 ranks"},
	}
	var b strings.Builder
	if err := WriteChromeWithDecisions(&b, "job", perRank, decisions); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.S != "" {
				t.Fatalf("slice event carries scope %q", e.S)
			}
		case "i":
			instants++
			if e.S != "g" || e.Ts != 0.25e6 || e.Args["detail"] == "" {
				t.Fatalf("bad instant %+v", e)
			}
		}
	}
	if slices != 1 || instants != 2 {
		t.Fatalf("%d slices, %d instants; want 1 and 2", slices, instants)
	}
}
