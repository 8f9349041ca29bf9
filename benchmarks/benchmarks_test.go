package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of three = %v, want 3", m)
	}
}

func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{30, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(v)
	if s.HighP != 90 || math.Abs(s.High-90.1) > 1e-9 || s.Median != 50.5 || s.N != 100 {
		t.Errorf("summarize(1..100) = %+v, want p90 = 90.1, median 50.5", s)
	}
	if s := summarize(v[:30]); s.HighP != 0 || s.High != 0 {
		t.Errorf("30 samples leave no percentile with ten beyond, got p%v", s.HighP)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps 2
		{ID: 4, Parent: 1, StartNS: 80, EndNS: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 1, StartNS: 35, EndNS: 38},  // inside 2 and 3
		{ID: 6, Parent: 2, StartNS: 60, EndNS: 80},  // a grandchild: not the job's child
		{ID: 7, Name: "other job", StartNS: 60, EndNS: 80},
	}
	if got := childCoverNS(spans, 1); got != 70 {
		t.Errorf("children cover %d ns of the job, want 70 ([10,60) and [80,100))", got)
	}
	if got := selfNS(spans, 1); got != 30 {
		t.Errorf("job self time %d ns, want 30", got)
	}
	if got := selfNS(spans, 7); got != 20 {
		t.Errorf("childless span self time %d ns, want its duration 20", got)
	}
}

func TestTracerRecordsParentAndNilTracerRecordsNothing(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", 0)) // must not panic
	tr := newTracer("w")
	job := tr.begin("job", 0)
	rank := tr.begin("rank", job)
	tr.end(rank)
	tr.end(job)
	if len(tr.spans) != 2 || tr.spans[1].Parent != job || tr.spans[1].Workload != "w" {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].EndNS < tr.spans[1].EndNS || tr.spans[1].EndNS < tr.spans[1].StartNS {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
}

func TestInnermostFrameAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "heterohpc/internal/sparse.NewCSRFromCOO", "heterohpc/internal/rd.Run", "main.spanApp.Run"}, "sparse"},
		{[]string{"heterohpc/internal/mp.(*mailbox).take", "heterohpc/internal/mp.(*Rank).RecvF64", "heterohpc/internal/krylov.cg"}, "mp"},
		{[]string{"sort.insertionSortCmpFunc", "heterohpc/internal/sparse.NewCSRFromCOO.func1"}, "sparse"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.runPass", "main.main"}, "runtime"},
		{[]string{"heterohpc/internal/analysis/detclock.run"}, "analysis"},
		{nil, "runtime"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	shares := cpuShares([][]string{{"heterohpc/internal/mp.x"}, {"runtime.y"}, {"a", "heterohpc/internal/mp.z"}}, []int64{10, 30, 60})
	if shares["mp"] != 0.7 || shares["runtime"] != 0.3 {
		t.Errorf("shares %v, want mp 0.7 runtime 0.3", shares)
	}
}

// Minimal protobuf writers, to hand the decoder a profile of known content.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
func pbInt(b []byte, tag int, v uint64) []byte { return pbVarint(pbVarint(b, uint64(tag)<<3), v) }
func pbBytes(b []byte, tag int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(tag)<<3|2), uint64(len(data))), data...)
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "runtime.memmove", "heterohpc/internal/sparse.(*CSR).MulVec", "heterohpc/internal/krylov.cg", "samples", "cpu"}
	var prof []byte
	prof = pbBytes(prof, 1, pbInt(pbInt(nil, 1, 4), 2, 4)) // sample_type, skipped by the decoder
	// Two samples: a packed one with an inlined leaf location, an unpacked one.
	packed := pbBytes(nil, 1, pbVarint(pbVarint(nil, 1), 2))
	packed = pbBytes(packed, 2, pbVarint(pbVarint(nil, 3), 30_000_000))
	prof = pbBytes(prof, 2, packed)
	prof = pbBytes(prof, 2, pbInt(pbInt(pbInt(nil, 1, 2), 2, 1), 2, 10_000_000))
	// Location 1 holds memmove inlined into MulVec; location 2 is cg.
	loc1 := pbInt(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbInt(pbInt(nil, 1, 11), 2, 42))
	loc1 = pbBytes(loc1, 4, pbInt(nil, 1, 12))
	prof = pbBytes(prof, 4, loc1)
	prof = pbBytes(prof, 4, pbBytes(pbInt(nil, 1, 2), 4, pbInt(nil, 1, 13)))
	for id, name := range map[uint64]uint64{11: 1, 12: 2, 13: 3} {
		prof = pbBytes(prof, 5, pbInt(pbInt(nil, 1, id), 2, name))
	}
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	prof = pbInt(prof, 9, 12345) // time_nanos, skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, nanos, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wantStacks := [][]string{{strs[1], strs[2], strs[3]}, {strs[3]}}
	if !reflect.DeepEqual(stacks, wantStacks) || !reflect.DeepEqual(nanos, []int64{30_000_000, 10_000_000}) {
		t.Fatalf("parsed %v %v, want %v", stacks, nanos, wantStacks)
	}
	shares := cpuShares(stacks, nanos)
	if shares["sparse"] != 0.75 || shares["krylov"] != 0.25 {
		t.Errorf("shares %v, want sparse 0.75 krylov 0.25", shares)
	}
	if _, _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// ten returns ten runs around centre: centre-4.5*step .. centre+4.5*step,
// in a fixed shuffled order.
func ten(centre, step float64) []float64 {
	v := make([]float64, 10)
	for i, k := range []float64{0.5, -3.5, 2.5, -1.5, 4.5, -0.5, 3.5, -2.5, 1.5, -4.5} {
		v[i] = centre + k*step
	}
	return v
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		m        metricDef
		old, cur []float64
		want     string
	}{
		{"noise inside the bound", lower, []float64{10, 10.1, 9.9, 10.2, 9.8}, []float64{10.1, 10, 10.2, 9.9, 10.3}, verdictSame},
		{"median 20% slower", lower, []float64{10, 10.1, 9.9, 10.2, 9.8}, []float64{12, 12.1, 11.9, 12.2, 11.8}, verdictWorse},
		{"ten pairs, all won, beyond the old spread", lower, ten(10, 0.1), ten(9, 0.1), verdictBetter},
		{"ten pairs, nine won", lower, ten(10, 0.1), append(ten(9, 0.1)[:9], 10.6), verdictBetter},
		{"ten pairs, eight won", lower, ten(10, 0.1), append(ten(9, 0.1)[:8], 10.6, 10.6), verdictSame},
		{"ten pairs won by less than the old spread", lower, ten(10, 0.1), ten(9.95, 0.1), verdictSame},
		{"five runs all faster: too few to claim", lower, []float64{10, 10.1, 9.9, 10.2, 9.8}, []float64{9, 9.1, 8.9, 9.2, 8.8}, verdictSame},
		{"faster median but runs overlap", lower, []float64{10, 10.1, 9.9, 10.2, 9.8}, []float64{9.7, 9.9, 9.6, 10, 9.5}, verdictSame},
		{"spread wider than the bound, overlapping", lower, []float64{10, 13, 8, 12, 9}, []float64{11, 14, 9, 12.5, 10}, verdictUnresolved},
		{"spread wider than the bound but disjoint and slower", lower, []float64{10, 13, 8, 12, 9}, []float64{20, 26, 16, 24, 18}, verdictWorse},
		{"higher is better: a drop is worse", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictWorse},
		{"higher is better: ten pairs of a rise", higher, ten(100, 1), ten(120, 1), verdictBetter},
		{"exact virtual number moved", metricDef{Name: "virt_s", Better: "lower", Bound: 0.001}, []float64{4.8, 4.8, 4.8}, []float64{4.9, 4.9, 4.9}, verdictWorse},
		{"exact virtual number unchanged", metricDef{Name: "virt_s", Better: "lower", Bound: 0.001}, []float64{4.8, 4.8, 4.8}, []float64{4.8, 4.8, 4.8}, verdictSame},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	old := &results{Workloads: []workloadResult{{Name: "rd-weak", Digest: "a", Metrics: map[string][]float64{"wall_s": {10, 10.1, 9.9}, "virt_s": {4.8, 4.8, 4.8}}}}}
	cur := &results{Workloads: []workloadResult{{Name: "rd-weak", Digest: "b", Metrics: map[string][]float64{"wall_s": {13, 13.1, 12.9}, "virt_s": {4.8, 4.8, 4.8}}}}}
	rows := compareResults(old, cur)
	if len(rows) != 2 || rows[0].Verdict != verdictWorse || math.Abs(rows[0].Ratio-1.3) > 1e-12 || rows[1].Verdict != verdictSame {
		t.Fatalf("rows %+v", rows)
	}
	var out bytes.Buffer
	printComparison(&out, rows)
	if !bytes.Contains(out.Bytes(), []byte("1.3000 of 10")) || !bytes.Contains(out.Bytes(), []byte("worse")) {
		t.Errorf("comparison does not give the ratio with its base:\n%s", out.String())
	}
	if bad := disagreements(rows, old, cur); len(bad) != 2 {
		t.Errorf("selfcheck disagreements %v, want the wall_s row and the digest", bad)
	}
}

// TestSmokeAllWorkloads runs every workload at smoke size, untraced and
// traced, in this process: every correctness check must pass, the traced
// pass must do the same virtual work, and the traced pass must fill every
// per-layer metric it owns.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		plain, err := runPass(passSpec{Workload: w.name, Seed: 2012, Smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runPass(passSpec{Workload: w.name, Seed: 2012, Smoke: true, Trace: true, Observe: true})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, p := range []*passResult{plain, traced} {
			if p.Failed != 0 || p.Ops == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.name, p.Failed, p.Ops, p.Failures)
			}
			for _, m := range endToEndMetrics() {
				if m.Name != "setup_s" && p.value(m.Name) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, p.value(m.Name))
				}
			}
		}
		if plain.Digest != traced.Digest || plain.VirtS != traced.VirtS || plain.VirtUSD != traced.VirtUSD {
			t.Errorf("%s: traced pass changed the virtual numbers: %s vs %s", w.name, plain.Digest, traced.Digest)
		}
		if plain.Layer != nil || plain.Spans != nil {
			t.Errorf("%s: untraced pass recorded spans or layer numbers", w.name)
		}
		if len(traced.Spans) == 0 || traced.Layer["mp.msgs"] <= 0 || traced.Layer["obs.events"] <= 0 || traced.Layer["core.jobs"] <= 0 {
			t.Errorf("%s: traced pass is missing spans or counts: %d spans, layer %v", w.name, len(traced.Spans), traced.Layer)
		}
		if w.name == "faults-storm" {
			if plain.JournalSHA == "" || plain.JournalSHA != traced.JournalSHA {
				t.Errorf("faults-storm: journal SHA %q vs %q", plain.JournalSHA, traced.JournalSHA)
			}
			if traced.Layer["bench.restart_host_s"] <= 0 || traced.Layer["bench.attempts"] < 2 {
				t.Errorf("faults-storm: supervisor numbers missing: %v", traced.Layer)
			}
		} else if traced.Layer["core.run_self_s"] <= 0 || traced.Layer["rd.run_s"]+traced.Layer["nse.run_s"] <= 0 {
			t.Errorf("%s: job and rank spans missing: %v", w.name, traced.Layer)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// this package from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the package %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, hostMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &out, &errOut); code != 1 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-compare", "only-one.json"}, &out, &errOut); code != 1 {
		t.Errorf("-compare with one file: exit %d", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d", code)
	}
}
