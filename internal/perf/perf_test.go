package perf

import (
	"flag"
	"fmt"
	"testing"
)

// rdIterationAllocCeiling is the CI perf-smoke ceiling for
// BenchmarkRDIteration. The pre-pooling tree measured 15,540 allocs/op; the
// zero-allocation steady-state work brought it to ~2,830, sharing one
// symbolic structure between the two operators to 2,485, block-form assembly
// to 2,433, and streaming each element straight into the matrix (no assembly
// COO, pair streams handed over rather than copied) from 2,131 to 1,957; the
// ceiling is that plus 10%. If this trips, an allocation crept back into the
// hot path — find it with `go test -run '^$' -bench RDIteration -memprofile
// mem.pprof ./internal/perf`, do not raise the ceiling.
const rdIterationAllocCeiling = 2153

// rdIterationBytesCeiling bounds what BenchmarkRDIteration moves through
// the heap. The sort-based symbolic set-up held it at 25.3 MB/op (~96 B per
// assembly triplet across two operators on 8 ranks); the linear builder and
// the shared scratch COO brought it to 15.2 MB/op; building the space's
// symbolic structure once, for the mass matrix, and letting the system
// matrix adopt it (with a 4-byte refill plan entry per triplet in place of
// two ints) brought it to 9.7 MB/op; assembling elements as blocks of 8 ids
// rather than 64 index pairs, and building the pattern from those, brought
// it to 6.11 MB/op; evaluating each element straight into the matrix, so
// no assembly COO holds 64 values per element, brought it to 4.89 MB/op
// (4.78 MB/op after the transport changes that followed); indexing each
// rank's vertices in a bitmap that follows what the rank holds, in place of
// a table over the span of its ids and a map, brought it to 4.62 MB/op (4.42
// MB/op by the time the next step landed); re-sending the mass matrix's pair
// streams for the system matrix, where they were spelled out and shipped
// again byte for byte, brought it to 4.20 MB/op, and the ceiling is that
// plus 10%. allocs/op cannot see this: the set-up makes few, large
// allocations.
const rdIterationBytesCeiling = 4_623_000

// nsIterationAllocCeiling is the BenchmarkNSIteration ceiling. The six
// Navier–Stokes operators used to build six private ghost importers
// (6,559 allocs/op against RD's 2,832); sharing one importer across the
// coupled operators — they discretise the same element stencil, so their
// ghost sets are identical — brought it to ~4,600, sharing one symbolic
// structure to 3,183, block-form assembly to 3,102 and streaming elements
// straight into the matrices from 2,942 to 2,762; the ceiling is that plus
// 10%. The residue over RD is genuine setup work: six DistMatrix assemblies
// per job instead of two.
const nsIterationAllocCeiling = 3038

// nsIterationBytesCeiling bounds what BenchmarkNSIteration moves through the
// heap. Its six operators are built from one space's element ids: each used
// to spell out and ship its own copy of the same pair streams (3.01 MB/op);
// re-sending the first operator's brought it to 2.52 MB/op, and the ceiling
// is that plus 10%.
const nsIterationBytesCeiling = 2_772_000

// rdJobP64BytesCeiling bounds what BenchmarkRDJobP64 moves through the heap.
// On top of the re-sent pair streams, a rank whose frozen mass matrix adopts
// a class-mate's values builds the system matrix into the array it dropped,
// where it used to drop it and allocate another of the same length: 12.90
// MB/op went to 11.22 MB/op, and the ceiling is that plus 10%.
const rdJobP64BytesCeiling = 12_340_000

// rdSweepBytesCeiling bounds what BenchmarkRDSweepOneTarget moves through
// the heap: three RD jobs on one target. When each job built its shapes
// afresh the sweep moved 18.58 MB/op; sharing the target's intern table
// between its jobs, so the P = 27 job builds only the shapes P = 8 lacked
// and the P = 64 job builds none, brought it to 16.30 MB/op, and the
// ceiling is that plus 10%.
const rdSweepBytesCeiling = 17_930_000

// rdLiveHeapPerRankCeiling bounds the live heap per rank of an RD job at P
// = 64 (6³ elements each) run after a P = 27 job on its target
// (TestRDLiveHeapPerRankCeiling). With a table per world it read 331.9 kB
// per rank. A target's table holds the P = 27 job's entries until the P =
// 64 job ends: its shapes, which P = 64 adopts, and its frozen mass values,
// which P = 64 cannot (the mesh width differs), so it reads 354.2 kB per
// rank, and the ceiling is that plus 10%.
const rdLiveHeapPerRankCeiling = 389_600

// measure runs one benchmark body for a fixed n iterations under
// testing.Benchmark (as `-benchtime Nx` would), skipping when the
// environment cannot give representative allocation counts. A fixed count
// keeps the gates to a few seconds, where the 1 s default ran each case for
// hundreds of iterations to read the same counts.
func measure(t *testing.T, name string, n int, bench func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	skipUnrepresentative(t)
	bt := flag.Lookup("test.benchtime")
	was := bt.Value.String()
	if err := bt.Value.Set(fmt.Sprintf("%dx", n)); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(bench)
	if err := bt.Value.Set(was); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d ns/op, %d B/op, %d allocs/op (%d iterations) %v",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N, res.Extra)
	return res
}

// skipUnrepresentative skips a gate where the environment cannot give
// representative allocation counts or heap sizes.
func skipUnrepresentative(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	if testing.Short() {
		t.Skip("perf smoke skipped in -short mode")
	}
}

// rdIteration and nsIteration are the one measurement of
// BenchmarkRDIteration and BenchmarkNSIteration that both ceilings of each
// read; the first of them to run takes it (a skipped measurement leaves it
// empty, so the other skips too).
var rdIteration, nsIteration testing.BenchmarkResult

func measureOnce(t *testing.T, res *testing.BenchmarkResult, name string, bench func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	if res.N == 0 {
		*res = measure(t, name, 20, bench)
	}
	return *res
}

func measureRDIteration(t *testing.T) testing.BenchmarkResult {
	return measureOnce(t, &rdIteration, "rd-iteration", BenchmarkRDIteration)
}

func measureNSIteration(t *testing.T) testing.BenchmarkResult {
	return measureOnce(t, &nsIteration, "ns-iteration", BenchmarkNSIteration)
}

// TestRDIterationAllocCeiling is the CI perf-smoke step: it measures
// BenchmarkRDIteration and fails when allocs/op exceeds the checked-in
// ceiling. ns/op is hardware-dependent and only reported; allocs/op is
// deterministic enough to gate on.
func TestRDIterationAllocCeiling(t *testing.T) {
	res := measureRDIteration(t)
	if res.AllocsPerOp() > rdIterationAllocCeiling {
		t.Errorf("rd-iteration allocates %d allocs/op, ceiling is %d",
			res.AllocsPerOp(), rdIterationAllocCeiling)
	}
}

// TestRDIterationBytesCeiling gates the same measurement on bytes/op, which
// is as repeatable as allocs/op and is where symbolic set-up cost shows.
func TestRDIterationBytesCeiling(t *testing.T) {
	res := measureRDIteration(t)
	if res.AllocedBytesPerOp() > rdIterationBytesCeiling {
		t.Errorf("rd-iteration allocates %d B/op, ceiling is %d",
			res.AllocedBytesPerOp(), rdIterationBytesCeiling)
	}
}

// TestNSIterationAllocCeiling extends the CI alloc gate to the
// Navier–Stokes benchmark, so the importer sharing cannot silently regress.
func TestNSIterationAllocCeiling(t *testing.T) {
	res := measureNSIteration(t)
	if res.AllocsPerOp() > nsIterationAllocCeiling {
		t.Errorf("ns-iteration allocates %d allocs/op, ceiling is %d",
			res.AllocsPerOp(), nsIterationAllocCeiling)
	}
}

// TestNSIterationBytesCeiling gates the Navier–Stokes job on bytes/op: six
// operators built from one space, so what each build allocates shows six
// times.
func TestNSIterationBytesCeiling(t *testing.T) {
	res := measureNSIteration(t)
	if res.AllocedBytesPerOp() > nsIterationBytesCeiling {
		t.Errorf("ns-iteration allocates %d B/op, ceiling is %d",
			res.AllocedBytesPerOp(), nsIterationBytesCeiling)
	}
}

// TestRDJobP64BytesCeiling gates the 64-rank RD job on bytes/op: the one
// gate whose ranks have class-mates to share frozen values with.
func TestRDJobP64BytesCeiling(t *testing.T) {
	res := measure(t, "rd-job-p64", 10, BenchmarkRDJobP64)
	if res.AllocedBytesPerOp() > rdJobP64BytesCeiling {
		t.Errorf("rd-job-p64 allocates %d B/op, ceiling is %d",
			res.AllocedBytesPerOp(), rdJobP64BytesCeiling)
	}
}

// TestRDSweepBytesCeiling gates the three-job sweep on bytes/op: the one
// gate whose jobs adopt what the jobs before them built on their target.
func TestRDSweepBytesCeiling(t *testing.T) {
	res := measure(t, "rd-sweep-one-target", 5, BenchmarkRDSweepOneTarget)
	if res.AllocedBytesPerOp() > rdSweepBytesCeiling {
		t.Errorf("rd-sweep-one-target allocates %d B/op, ceiling is %d",
			res.AllocedBytesPerOp(), rdSweepBytesCeiling)
	}
}

// TestRDLiveHeapPerRankCeiling gates the footprint of a sweep: the live
// heap of an RD job at P = 64 (6³ elements per rank), run after a P = 27
// job on the same target, so that it includes what the target's intern
// table holds between jobs.
func TestRDLiveHeapPerRankCeiling(t *testing.T) {
	skipUnrepresentative(t)
	perRank := rdLiveHeapPerRank(t)
	t.Logf("rd-live-heap-p64: %d B/rank", perRank)
	if perRank > rdLiveHeapPerRankCeiling {
		t.Errorf("rd job at P = 64 holds %d B/rank live, ceiling is %d",
			perRank, rdLiveHeapPerRankCeiling)
	}
}

// TestSteadyStateZeroAlloc pins the warm steady states at exactly zero
// allocations per op with observability disabled — the contract that lets
// the obs layer default to a nil no-op sink. The solver cases run through
// the instrumented CG/GMRES wrappers, so any allocation the wrappers
// introduced would show up here; the two message-layer cases count
// process-wide mallocs over 1000 and 512 rank goroutines, so one payload
// that is copied or one queue or link that regrows on any rank in every op
// shows too; a one-time cost, such as a world's set-up, is spread over the
// 200 ops each world case runs. The element-to-matrix refill of the
// applications' time loops is measured the same way, over 27 ranks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		bench func(*testing.B)
	}{
		{"cg-steady-serial", 100, BenchmarkCGSteadySerial},
		{"gmres-arnoldi", 20, BenchmarkGMRESArnoldi},
		{"halo-exchange-p1000", 200, BenchmarkHaloExchangeP1000},
		{"allreduce-scalar-p512", 200, BenchmarkAllreduceScalarP512},
		{"space-refill-p27", 200, BenchmarkSpaceRefillP27},
	} {
		if res := measure(t, c.name, c.n, c.bench); res.AllocsPerOp() != 0 {
			t.Errorf("%s allocates %d allocs/op with obs disabled, want 0",
				c.name, res.AllocsPerOp())
		}
	}
}
