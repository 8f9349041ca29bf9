package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

// TestNilRunIsNoOp: every entry point must tolerate the disabled state — a
// nil Run, nil Recorder, nil metric handles. Reflection walks every
// exported method of the nil-safe pointer types and calls it on a nil
// receiver, once with zero-valued arguments and once with non-zero scalars
// (so an early return on a zero argument cannot hide a missing guard). No
// call may panic or return anything but zero values, so a new method
// added without its nil guard fails here.
func TestNilRunIsNoOp(t *testing.T) {
	nils := []any{(*Run)(nil), (*Recorder)(nil), (*Registry)(nil),
		(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil)}
	for _, recv := range nils {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			name := fmt.Sprintf("nil %s.%s", v.Type(), v.Type().Method(i).Name)
			for _, nonzero := range []bool{false, true} {
				out, err := callNil(v.Method(i), nonzero)
				if err != nil {
					t.Errorf("%s panics: %v", name, err)
				}
				for k, o := range out {
					if !o.IsZero() {
						t.Errorf("%s result %d = %v, want the zero value", name, k, o)
					}
				}
			}
		}
	}
}

// callNil calls fn with zero-valued arguments, or with every numeric,
// string and bool argument set to a non-zero value, recovering a panic.
func callNil(fn reflect.Value, nonzero bool) (out []reflect.Value, err error) {
	ft := fn.Type()
	args := make([]reflect.Value, ft.NumIn())
	for j := range args {
		a := reflect.New(ft.In(j)).Elem()
		switch {
		case !nonzero:
		case a.CanInt():
			a.SetInt(1)
		case a.CanUint():
			a.SetUint(1)
		case a.CanFloat():
			a.SetFloat(1)
		case a.Kind() == reflect.String:
			a.SetString("x")
		case a.Kind() == reflect.Bool:
			a.SetBool(true)
		}
		args[j] = a
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if ft.IsVariadic() {
		return fn.CallSlice(args), nil
	}
	return fn.Call(args), nil
}

// TestNilRecorderHotPathAllocs pins the disabled-observability cost on the
// instrumented hot paths to zero allocations.
func TestNilRecorderHotPathAllocs(t *testing.T) {
	var rec *Recorder
	var reg *Registry
	if n := testing.AllocsPerRun(1000, func() {
		rec.CountMsg(64)
		rec.CountHalo(128)
		rec.QueueInterval(0, 1)
		rec.Solve("cg", 10, 1e-9, true)
		reg.Counter("x").Add(1)
	}); n != 0 {
		t.Fatalf("disabled observability allocates %.1f allocs/op, want 0", n)
	}
}

// TestJournalDeterministicMergeOrder: events from several recorders must
// come out in (T, recorder, seq) order, byte-identically across runs, even
// when recording happens concurrently.
func TestJournalDeterministicMergeOrder(t *testing.T) {
	render := func() string {
		r := NewRun()
		clks := []*fakeClock{{}, {}, {}}
		recs := make([]*Recorder, 3)
		for i := range recs {
			recs[i] = r.NewRecorder(i, clks[i])
		}
		var wg sync.WaitGroup
		for i, rec := range recs {
			wg.Add(1)
			go func(i int, rec *Recorder, clk *fakeClock) {
				defer wg.Done()
				for s := 0; s < 4; s++ {
					clk.t = float64(s) // deliberate cross-rank timestamp ties
					rec.Step(s + 1)
					rec.Solve("cg", 10*i+s, 1e-8, true)
				}
			}(i, rec, clks[i])
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WriteJournal(&buf); err != nil {
			t.Fatalf("WriteJournal: %v", err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical recordings produced different journals:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 24 {
		t.Fatalf("got %d journal lines, want 24", len(lines))
	}
	// Within one timestamp, rank 0's events must precede rank 1's.
	if !strings.Contains(lines[0], `"rank":0`) || !strings.Contains(lines[2], `"rank":1`) {
		t.Fatalf("tie-broken order wrong:\n%s", a)
	}
	for _, ln := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("journal line is not valid JSON: %q: %v", ln, err)
		}
	}
}

// TestJournalMergeMatchesSort: the streams' merge writes what sorting every
// event by (T, recorder, seq) writes, also when a stream's explicit times
// run backwards, and a second write writes it again.
func TestJournalMergeMatchesSort(t *testing.T) {
	r := NewRun()
	clk := &fakeClock{}
	ranks := []*Recorder{r.NewRecorder(0, clk), r.NewRecorder(1, clk)}
	g := r.Global()
	late := r.NewRecorder(2, clk)
	for i := 0; i < 40; i++ {
		clk.t = float64(i / 3)
		ranks[i%2].Step(i)
		g.EventAt(float64((i*7)%11)/2, "decision", fmt.Sprint(i)) // out of order, with ties
		if i%5 == 0 {
			late.Phase(clk.t, "solve")
		}
	}
	var all []Event
	for _, rc := range r.recs {
		all = append(all, rc.events...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.recID < b.recID || a.recID == b.recID && a.seq < b.seq
	})
	var want []byte
	for i := range all {
		want = AppendEventLine(want, &all[i])
	}
	for pass := 1; pass <= 2; pass++ {
		var got bytes.Buffer
		if err := r.WriteJournal(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("write %d: merged journal differs from the sorted one:\n%s\nvs\n%s", pass, got.Bytes(), want)
		}
	}
}

// TestMetricsDeterministicOutput: registry export must be byte-identical
// for identical recorded values regardless of recording interleaving.
func TestMetricsDeterministicOutput(t *testing.T) {
	render := func() string {
		r := NewRun()
		reg := r.Metrics()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reg.Counter("mp.messages").Add(int64(100 + i))
				reg.Gauge("depth").Max(float64(i))
				reg.addCounts("iters", IterBuckets, tally(nil, IterBuckets, float64(i*30)))
			}(i)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("metric exports differ:\n%s\nvs\n%s", a, b)
	}
	var v struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    map[string]struct {
			Bounds []float64 `json:"bounds"`
			Counts []int64   `json:"counts"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(a), &v); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v\n%s", err, a)
	}
	if v.Counters["mp.messages"] != 100+101+102+103 {
		t.Errorf("counter = %d, want 406", v.Counters["mp.messages"])
	}
	if v.Gauges["depth"] != 3 {
		t.Errorf("gauge = %g, want 3", v.Gauges["depth"])
	}
	h := v.Hists["iters"]
	if len(h.Counts) != len(IterBuckets)+1 {
		t.Fatalf("histogram has %d counts for %d bounds", len(h.Counts), len(IterBuckets))
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram total = %d, want 4", total)
	}
}

// TestRecorderFoldsCounters: per-rank message/halo counters and queue
// intervals must land in the registry on write.
func TestRecorderFoldsCounters(t *testing.T) {
	r := NewRun()
	clk := &fakeClock{}
	rec := r.NewRecorder(0, clk)
	rec.CountMsg(100)
	rec.CountMsg(28)
	rec.CountHalo(512)
	// Three overlapping residency intervals, then a disjoint one, in
	// receive order (ends ascending).
	rec.QueueInterval(1.5, 1.7)
	rec.QueueInterval(0, 2)
	rec.QueueInterval(1, 3)
	rec.QueueInterval(10, 11)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	reg := r.Metrics()
	if got := reg.Counter("mp.messages").Value(); got != 2 {
		t.Errorf("mp.messages = %d, want 2", got)
	}
	if got := reg.Counter("mp.message_bytes").Value(); got != 128 {
		t.Errorf("mp.message_bytes = %d, want 128", got)
	}
	if got := reg.Counter("halo.exchanges").Value(); got != 1 {
		t.Errorf("halo.exchanges = %d, want 1", got)
	}
	if got := reg.Gauge("mp.mailbox_highwater").Value(); got != 3 {
		t.Errorf("mailbox high-water = %g, want 3", got)
	}
	// A second write must not double-fold.
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("second WriteMetrics: %v", err)
	}
	if got := reg.Counter("mp.messages").Value(); got != 2 {
		t.Errorf("after second write mp.messages = %d, want 2 (double fold)", got)
	}
}

// TestHistogramsFoldOnlyWhenObserved: each recorder tallies its own
// krylov.iterations and halo.step_bytes buckets, which the write adds into
// the registry once; a histogram no recorder observed into stays out of the
// metrics.
func TestHistogramsFoldOnlyWhenObserved(t *testing.T) {
	r := NewRun()
	a, b := r.NewRecorder(0, &fakeClock{}), r.NewRecorder(1, &fakeClock{})
	a.Solve("cg", 1, 1e-9, true)
	a.Solve("cg", 7, 1e-9, true)
	b.Solve("gmres", 700, 1e-3, false)
	b.StepHalo(1) // no halo traffic: observes nothing
	var buf bytes.Buffer
	for i := 0; i < 2; i++ { // the second write must not fold again
		buf.Reset()
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if strings.Contains(out, "halo.step_bytes") {
		t.Errorf("an unobserved histogram reached the metrics:\n%s", out)
	}
	want := `"krylov.iterations": {"bounds": [1, 2, 5, 10, 20, 50, 100, 200, 500], "counts": [1, 0, 0, 1, 0, 0, 0, 0, 0, 1]}`
	if !strings.Contains(out, want) {
		t.Errorf("metrics lack %s:\n%s", want, out)
	}
}

// TestStepHaloDeltas: StepHalo must emit deltas, not running totals, and
// skip steps with no traffic.
func TestStepHaloDeltas(t *testing.T) {
	r := NewRun()
	clk := &fakeClock{}
	rec := r.NewRecorder(0, clk)
	rec.CountHalo(100)
	rec.CountHalo(50)
	rec.StepHalo(1)
	rec.StepHalo(2) // no traffic since step 1: no event
	rec.CountHalo(25)
	rec.StepHalo(3)
	var buf bytes.Buffer
	if err := r.WriteJournal(&buf); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d halo events, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"i1":1,"i2":2,"i3":150`) {
		t.Errorf("first halo event wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"i1":3,"i2":1,"i3":25`) {
		t.Errorf("second halo event wrong: %s", lines[1])
	}
}

// TestGaugeMaxConcurrent exercises the CAS fold under contention.
func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 0; v < 1000; v++ {
				g.Max(float64(i*1000 + v))
			}
		}(i)
	}
	wg.Wait()
	if g.Value() != 7999 {
		t.Fatalf("gauge = %g, want 7999", g.Value())
	}
}

// TestEventEncodingEscapes: names containing JSON metacharacters must
// produce valid JSON lines.
func TestEventEncodingEscapes(t *testing.T) {
	r := NewRun()
	rec := r.NewRecorder(0, &fakeClock{t: 1.5})
	rec.EventAt(1.5, "decision", `detail with "quotes" and
newline`)
	var buf bytes.Buffer
	if err := r.WriteJournal(&buf); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &v); err != nil {
		t.Fatalf("escaped event is not valid JSON: %v\n%s", err, buf.String())
	}
	if v["name"] != "detail with \"quotes\" and\nnewline" {
		t.Errorf("name round-trip failed: %q", v["name"])
	}
}
