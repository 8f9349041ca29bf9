package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"heterohpc/internal/obs"
)

// passSpec is what a child process is asked to run: one pass of a workload
// (set-up, then the timed region). The timed passes set neither Trace nor
// Observe.
type passSpec struct {
	Workload string
	Seed     uint64
	Smoke    bool
	// Trace records spans and a CPU profile of the timed region.
	Trace bool
	// Observe attaches an obs.Run to the workload's jobs, for the traffic
	// counts of its registry and the cost of observing.
	Observe bool
	// SpawnNS is the parent's wall clock just before it started the child,
	// so that setup_s covers the child's exec and runtime start.
	SpawnNS int64
}

// passResult is one pass as its child reports it.
type passResult struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	SetupS    float64 `json:"setup_s"`
	outcome
	// Layer is filled by a traced or observed pass, Spans by a traced one.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// profiledModules are the modules whose share of the traced pass's CPU
// profile is reported, plus "runtime" for samples outside the program.
var profiledModules = []string{"core", "bench", "rd", "nse", "mp", "sparse", "krylov", "fem", "mesh",
	"partition", "checkpoint", "h5lite", "obs", "triage", "vclock", "netmodel", "fault", "spot", "sched", "runtime"}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPass executes one pass in this process. The timed passes run with
// tracing, profiling and the extra observer off. The per-layer numbers come
// from two more passes: a traced one (spans and CPU profile, observer still
// off so the profile is the timed configuration's) and an observed one,
// whose difference from the timed passes is the cost of observing.
func runPass(spec passSpec) (*passResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	sz := fullSizes
	if spec.Smoke {
		sz = smokeSizes
	}
	if err := w.warm(sz, spec.Seed); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var tr *tracer
	var run *obs.Run
	var prof bytes.Buffer
	if spec.Trace {
		tr = newTracer(w.name)
	}
	if spec.Observe {
		run = obs.NewRun()
	}
	// The warm-up's garbage is collected here, inside the set-up, so the
	// timed region starts from the same heap every pass.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if spec.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	setup := float64(t0.UnixNano()-spec.SpawnNS) / 1e9

	out := w.run(sz, spec.Seed, tr, run)

	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	res := &passResult{
		WallS: wall, CPUS: cpu, SetupS: setup,
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		PeakRSSMB: peakRSSMB(),
		outcome:   *out,
	}
	if spec.Trace || spec.Observe {
		res.Layer = map[string]float64{}
	}
	if spec.Observe {
		if err := res.fillCounts(run); err != nil {
			return nil, err
		}
	}
	if spec.Trace {
		if err := res.fillSpans(tr.spans, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// registryCounts reads the traffic counters an observed run folded into its
// registry. Call it after the journal has been written (the write folds).
func registryCounts(run *obs.Run, counts map[string]float64) {
	reg := run.Metrics()
	counts["mp.msgs"] += float64(reg.Counter("mp.messages").Value())
	counts["mp.msg_bytes"] += float64(reg.Counter("mp.message_bytes").Value())
	counts["sparse.halo_bytes"] += float64(reg.Counter("halo.bytes").Value())
	counts["sparse.halo_exchanges"] += float64(reg.Counter("halo.exchanges").Value())
	if hw := reg.Gauge("mp.mailbox_highwater").Value(); hw > counts["mp.mailbox_highwater"] {
		counts["mp.mailbox_highwater"] = hw
	}
}

type countingWriter struct{ bytes, lines int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	c.lines += bytes.Count(p, []byte("\n"))
	return len(p), nil
}

// fillCounts records the observed pass's counts: the ones the workload
// read off the program's reports, and the observer's journal and registry.
func (res *passResult) fillCounts(run *obs.Run) error {
	for k, v := range res.Counts {
		res.Layer[k] = v
	}
	// faults-storm journals through its own observers and has already
	// counted them; elsewhere the pass's extra observer did the counting.
	if _, counted := res.Layer["obs.events"]; counted {
		return nil
	}
	var cw countingWriter
	if err := run.WriteJournal(&cw); err != nil {
		return err
	}
	res.Layer["obs.events"], res.Layer["obs.journal_bytes"] = float64(cw.lines), float64(cw.bytes)
	registryCounts(run, res.Layer)
	return nil
}

// fillSpans derives the traced pass's numbers from its spans and from the
// CPU profile, each sample charged to its innermost program frame.
func (res *passResult) fillSpans(spans []span, prof []byte) error {
	layer := res.Layer
	for _, s := range spans {
		d := float64(s.EndNS-s.StartNS) / 1e9
		switch s.Name {
		case "core.Target.Run":
			layer["core.run_self_s"] += float64(selfNS(spans, s.ID)) / 1e9
			ranks := 0
			app := ""
			for _, c := range spans {
				if c.Parent == s.ID {
					ranks++
					app = c.Name
				}
			}
			cover := float64(childCoverNS(spans, s.ID)) / 1e9
			switch app {
			case "rd.Run":
				layer["rd.run_s"] += cover
			case "ns.Run":
				layer["nse.run_s"] += cover
			}
			if ranks == 1 {
				layer["core.p1_job_s"] = d
			}
		case "bench.RunSupervised.restart":
			layer["bench.restart_host_s"] = d
		case "bench.RunSupervised.migrate":
			layer["bench.migrate_host_s"] = d
		}
	}
	stacks, nanos, err := parseCPUProfile(prof)
	if err != nil {
		return err
	}
	shares := cpuShares(stacks, nanos)
	for _, m := range profiledModules {
		layer[m+".cpu_frac"] = shares[m]
	}
	res.Spans = spans
	return nil
}

// Child protocol: the parent re-executes its own binary with -child and,
// for a pass, the spec as JSON; the child prints one JSON line on standard
// output.

// spawn runs args in a child process of this binary, waits for it, and
// decodes the last line of its standard output into v.
func spawn(args []string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return nil
}

// spawnPass runs one pass in its own process, so that peak_rss_mb is the
// pass's own and no pass inherits another's heap.
func spawnPass(spec passSpec) (*passResult, error) {
	spec.SpawnNS = time.Now().UnixNano()
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	res := &passResult{}
	if err := spawn([]string{"-child", "pass", "-spec", string(js)}, res); err != nil {
		return nil, err
	}
	return res, nil
}

func spawnLayers() (layerResults, error) {
	res := layerResults{}
	err := spawn([]string{"-child", "layers"}, &res)
	return res, err
}

// runChild is the child side of the protocol.
func runChild(kind, specJSON string, stdout io.Writer) error {
	var v any
	var err error
	switch kind {
	case "pass":
		var spec passSpec
		if err = json.Unmarshal([]byte(specJSON), &spec); err == nil {
			v, err = runPass(spec)
		}
	case "layers":
		v, err = runLayerDrivers()
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(v)
}
