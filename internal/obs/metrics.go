package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Fixed bucket layouts. Histograms never invent bucket bounds at runtime:
// a fixed layout keeps two runs' metric files byte-comparable and lets
// dashboards overlay runs without rebinning.
var (
	// IterBuckets bins Krylov iteration counts.
	IterBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	// ByteBuckets bins per-step traffic volumes (bytes).
	ByteBuckets = []float64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}
)

// Registry is a named-metric store. All accessors are nil-safe and return
// nil-safe handles, so instrumentation sites need no enabled checks beyond
// the pointer they already hold. Aggregation operations are deliberately
// limited to order-independent ones — integer adds, maxima, bucket counts —
// so concurrent recording from rank goroutines cannot make two identical
// seeded runs diverge.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters[name]
	if c == nil {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named max-gauge, creating it on first use.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ga := g.gauges[name]
	if ga == nil {
		ga = &Gauge{}
		g.gauges[name] = ga
	}
	return ga
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (an implicit +Inf bucket is appended). Later
// calls reuse the existing layout regardless of bounds.
func (g *Registry) Histogram(name string, bounds []float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		g.hists[name] = h
	}
	return h
}

// Counter is a monotone int64 counter. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil || d == 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a maximum-tracking gauge over non-negative values (the only
// float aggregation that is order-independent under concurrent recording).
// Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Max folds v into the gauge if it exceeds the current maximum. Negative
// values are ignored (the zero gauge reads 0).
func (g *Gauge) Max(v float64) {
	if g == nil || v <= 0 || math.IsNaN(v) {
		return
	}
	nb := math.Float64bits(v)
	for {
		ob := g.bits.Load()
		if math.Float64frombits(ob) >= v {
			return
		}
		if g.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// Value returns the current maximum (0 when nothing was recorded).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] tallies
// values v with v <= bounds[i] (and above the previous bound); the last
// bucket is the +Inf overflow. Recorders tally their own observations
// and add them in when the run is written (Recorder.fold).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
}

// addCounts adds a recorder's bucket counts (from tally) into the named
// histogram. Nil counts observed nothing and leave the registry alone, so a
// histogram exists exactly when some value was observed into it.
func (g *Registry) addCounts(name string, bounds []float64, counts []int64) {
	if counts == nil {
		return
	}
	h := g.Histogram(name, bounds)
	for i, c := range counts {
		h.counts[i].Add(c)
	}
}

// write emits the registry as deterministic JSON: sections and names in
// sorted order, shortest round-trip float formatting.
func (g *Registry) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n  \"counters\": {")
	for i, name := range sortedNames(len(g.counters), func(yield func(string)) {
		for k := range g.counters {
			yield(k)
		}
	}) {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    ")
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(": ")
		bw.WriteString(strconv.FormatInt(g.counters[name].Value(), 10))
	}
	bw.WriteString("\n  },\n  \"gauges\": {")
	for i, name := range sortedNames(len(g.gauges), func(yield func(string)) {
		for k := range g.gauges {
			yield(k)
		}
	}) {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    ")
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(": ")
		bw.WriteString(formatFloat(g.gauges[name].Value()))
	}
	bw.WriteString("\n  },\n  \"histograms\": {")
	for i, name := range sortedNames(len(g.hists), func(yield func(string)) {
		for k := range g.hists {
			yield(k)
		}
	}) {
		if i > 0 {
			bw.WriteByte(',')
		}
		h := g.hists[name]
		bw.WriteString("\n    ")
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(": {\"bounds\": [")
		for j, b := range h.bounds {
			if j > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(formatFloat(b))
		}
		bw.WriteString("], \"counts\": [")
		for j := range h.counts {
			if j > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(strconv.FormatInt(h.counts[j].Load(), 10))
		}
		bw.WriteString("]}")
	}
	bw.WriteString("\n  }\n}\n")
	return bw.Flush()
}

// sortedNames collects map keys through the iteration callback and returns
// them sorted — the registry's only map walks, serialized through here so
// iteration order can never leak into the output (heterolint:maporder).
func sortedNames(n int, each func(yield func(string))) []string {
	names := make([]string, 0, n)
	each(func(k string) { names = append(names, k) })
	sort.Strings(names)
	return names
}

// formatFloat renders a float in the journal/metrics encoding: shortest
// representation that round-trips, so equal values always encode equally.
// Negative zero is normalised to +0 — -0 == 0 in Go, and two equal values
// must not render two ways (see the AppendEventLine schema comment).
func formatFloat(f float64) string {
	if f == 0 {
		f = 0
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
