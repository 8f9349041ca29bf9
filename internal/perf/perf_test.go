package perf

import (
	"path/filepath"
	"testing"
)

// rdIterationAllocCeiling is the CI perf-smoke ceiling for the rd-iteration
// case. The pre-pooling tree measured 15,540 allocs/op; the zero-allocation
// steady-state work brought it to ~2,830, sharing one symbolic structure
// between the two operators to 2,485, block-form assembly to 2,433, and
// streaming each element straight into the matrix (no assembly COO, pair
// streams handed over rather than copied) from 2,131 to 1,957; the ceiling is
// that plus 10%. If this trips, an allocation crept back into the hot path —
// find it with `heterobench perf -memprofile`, do not raise the ceiling.
const rdIterationAllocCeiling = 2153

// rdIterationBytesCeiling bounds what the rd-iteration case moves through
// the heap. The sort-based symbolic set-up held it at 25.3 MB/op (~96 B per
// assembly triplet across two operators on 8 ranks); the linear builder and
// the shared scratch COO brought it to 15.2 MB/op; building the space's
// symbolic structure once, for the mass matrix, and letting the system
// matrix adopt it (with a 4-byte refill plan entry per triplet in place of
// two ints) brought it to 9.7 MB/op; assembling elements as blocks of 8 ids
// rather than 64 index pairs, and building the pattern from those, brought
// it to 6.11 MB/op; evaluating each element straight into the matrix, so
// no assembly COO holds 64 values per element, brought it to 4.89 MB/op, and
// the ceiling is that plus 10%. allocs/op cannot see this: the set-up makes
// few, large allocations.
const rdIterationBytesCeiling = 5_383_000

// nsIterationAllocCeiling is the ns-iteration ceiling. The six
// Navier–Stokes operators used to build six private ghost importers
// (6,559 allocs/op against RD's 2,832); sharing one importer across the
// coupled operators — they discretise the same element stencil, so their
// ghost sets are identical — brought it to ~4,600, sharing one symbolic
// structure to 3,183, block-form assembly to 3,102 and streaming elements
// straight into the matrices from 2,942 to 2,762; the ceiling is that plus
// 10%. The residue over RD is genuine setup work: six DistMatrix assemblies
// per job instead of two.
const nsIterationAllocCeiling = 3038

// measureCase measures one tracked case by name, failing the test when the
// name is not registered or the environment cannot give representative
// allocation counts.
func measureCase(t *testing.T, name string) Result {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	if testing.Short() {
		t.Skip("perf smoke skipped in -short mode")
	}
	for _, c := range Cases() {
		if c.Name == name {
			res := Measure(c)
			t.Logf("%s: %.0f ns/op, %d B/op, %d allocs/op (%d iterations)",
				name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
			return res
		}
	}
	t.Fatalf("%s case missing from tracked set", name)
	return Result{}
}

// TestRDIterationAllocCeiling is the CI perf-smoke step: it measures the
// tracked rd-iteration case (the body of BenchmarkRDIteration) and fails
// when allocs/op exceeds the checked-in ceiling. ns/op is hardware-dependent
// and only reported; allocs/op is deterministic enough to gate on.
func TestRDIterationAllocCeiling(t *testing.T) {
	res := measureCase(t, "rd-iteration")
	if res.AllocsPerOp > rdIterationAllocCeiling {
		t.Errorf("rd-iteration allocates %d allocs/op, ceiling is %d",
			res.AllocsPerOp, rdIterationAllocCeiling)
	}
}

// TestRDIterationBytesCeiling gates the same case on bytes/op, which is as
// repeatable as allocs/op and is where symbolic set-up cost shows.
func TestRDIterationBytesCeiling(t *testing.T) {
	res := measureCase(t, "rd-iteration")
	if res.BytesPerOp > rdIterationBytesCeiling {
		t.Errorf("rd-iteration allocates %d B/op, ceiling is %d",
			res.BytesPerOp, rdIterationBytesCeiling)
	}
}

// TestNSIterationAllocCeiling extends the CI alloc gate to the
// Navier–Stokes case, so the importer sharing cannot silently regress.
func TestNSIterationAllocCeiling(t *testing.T) {
	res := measureCase(t, "ns-iteration")
	if res.AllocsPerOp > nsIterationAllocCeiling {
		t.Errorf("ns-iteration allocates %d allocs/op, ceiling is %d",
			res.AllocsPerOp, nsIterationAllocCeiling)
	}
}

// TestSteadyStateZeroAlloc pins the warm steady states at exactly zero
// allocations per op with observability disabled — the contract that lets
// the obs layer default to a nil no-op sink. The solver cases run through
// the instrumented CG/GMRES wrappers, so any allocation the wrappers
// introduced would show up here; the two message-layer cases count
// process-wide mallocs over 1000 and 512 rank goroutines, so one payload
// that misses the pool or one queue that regrows on any rank in every op
// shows too. A one-time cost does not: when halo-exchange-p1000's 1000 ranks
// exit, they drain their private stacks into the shared pool, whose stacks
// grow to hold them (about 45 allocations, 2.4 MB, the same total over 200,
// 1000 or 3000 ops), which reads as 0 allocs/op and a few KB/op. The
// element-to-matrix refill of the applications' time loops is measured the
// same way, over 27 ranks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, name := range []string{"cg-steady-serial", "gmres-arnoldi",
		"halo-exchange-p1000", "allreduce-scalar-p512", "space-refill-p27"} {
		if res := measureCase(t, name); res.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d allocs/op with obs disabled, want 0",
				name, res.AllocsPerOp)
		}
	}
}

// TestReportRoundTrip checks the BENCH.json schema survives write+read and
// that the Baseline section is preserved.
func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	want := Report{
		GoVersion: "go1.24.0",
		GoArch:    "amd64",
		Date:      "2026-08-05T00:00:00Z",
		Results: []Result{
			{Name: "rd-iteration", Iterations: 20, NsPerOp: 5.7e7, AllocsPerOp: 2832, BytesPerOp: 25238609},
		},
		Baseline: []Result{
			{Name: "rd-iteration", NsPerOp: 8.675e7, AllocsPerOp: 15540, BytesPerOp: 69565427},
		},
	}
	if err := WriteJSON(want, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0] != want.Results[0] {
		t.Errorf("results round-trip: got %+v", got.Results)
	}
	if len(got.Baseline) != 1 || got.Baseline[0] != want.Baseline[0] {
		t.Errorf("baseline round-trip: got %+v", got.Baseline)
	}
	if got.GoVersion != want.GoVersion || got.Date != want.Date {
		t.Errorf("header round-trip: got %+v", got)
	}
}

// TestCasesRegistered pins the tracked case set: BENCH.json diffs pair
// results by name, so removals or renames must be deliberate.
func TestCasesRegistered(t *testing.T) {
	want := []string{"rd-iteration", "ns-iteration", "cg-steady-serial", "gmres-arnoldi",
		"distmatrix-build", "distmatrix-rebuild", "ilu0-setup", "halo-exchange-p1000", "allreduce-scalar-p512",
		"space-refill-p27"}
	cs := Cases()
	if len(cs) != len(want) {
		t.Fatalf("%d tracked cases, want %d", len(cs), len(want))
	}
	for i, c := range cs {
		if c.Name != want[i] {
			t.Errorf("case %d named %q, want %q", i, c.Name, want[i])
		}
		if c.Bench == nil {
			t.Errorf("case %q has no benchmark body", c.Name)
		}
	}
}
