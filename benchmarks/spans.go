package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer, recorded by the benchmark from
// outside the program: the decorators and drivers in this directory open
// one around each public call they make.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the traced pass began
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps a traced pass's spans in memory; the parent process writes
// them out when the benchmark ends. A nil tracer records nothing, which is
// how the timed passes run untraced.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// coveredNS is the length of the union of the given [start,end) intervals
// clipped to [lo,hi) — rank spans of one job overlap each other, so their
// plain sum would exceed the job.
func coveredNS(ivals [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivals))
	for _, iv := range ivals {
		if iv[0] < lo {
			iv[0] = lo
		}
		if iv[1] > hi {
			iv[1] = hi
		}
		if iv[1] > iv[0] {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + curHi - curLo
}

// childCoverNS is the part of span id's interval its direct children cover.
func childCoverNS(spans []span, id int) int64 {
	p := spans[id-1]
	var kids [][2]int64
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, [2]int64{s.StartNS, s.EndNS})
		}
	}
	return coveredNS(kids, p.StartNS, p.EndNS)
}

// selfNS is a span's duration minus the part its children cover.
func selfNS(spans []span, id int) int64 {
	p := spans[id-1]
	return p.EndNS - p.StartNS - childCoverNS(spans, id)
}
