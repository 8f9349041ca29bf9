package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"

	"heterohpc/internal/bench"
	"heterohpc/internal/core"
	"heterohpc/internal/mp"
	"heterohpc/internal/obs"
	"heterohpc/internal/triage"
	"heterohpc/internal/vclock"
)

// Accuracy limits of the correctness checks: the RD and Ethier–Steinman
// exact solutions the applications measure themselves against.
const (
	rdMaxErrLimit  = 1e-4
	nsVelErrLimit  = 1e-3
	nsPresErrLimit = 5e-2
)

// sizes are the workload parameters. Names and full sizes are fixed by the
// issue that defined the benchmark; the smoke sizes exist so the harness's
// own test can run every workload and every check in seconds.
type sizes struct {
	weakN, weakMax                                    int // rd-weak
	nsRanks, nsN, nsSteps, nsSkip                     int // ns-steady
	wideRanks, wideN, wideSteps                       int // rd-wide
	stormRanks, stormRPN, stormN, stormSteps, stormWv int // faults-storm
}

var fullSizes = sizes{
	weakN: 10, weakMax: 125,
	nsRanks: 27, nsN: 8, nsSteps: 40, nsSkip: 5,
	wideRanks: 1000, wideN: 2, wideSteps: 12,
	stormRanks: 64, stormRPN: 8, stormN: 8, stormSteps: 8, stormWv: 3,
}

var smokeSizes = sizes{
	weakN: 4, weakMax: 27,
	nsRanks: 8, nsN: 6, nsSteps: 4, nsSkip: 1,
	wideRanks: 27, wideN: 2, wideSteps: 4,
	stormRanks: 27, stormRPN: 3, stormN: 4, stormSteps: 6, stormWv: 2,
}

// workload is one named set of inputs. warm is the reduced job the set-up
// runs before the timed region (P=8 at the workload's n, 2 steps); run is
// the timed region itself.
type workload struct {
	name string
	why  string
	warm func(sz sizes, seed uint64) error
	run  func(sz sizes, seed uint64, tr *tracer, run *obs.Run) *outcome
}

// The whys are the ones BENCHMARK.json records.
var workloads = []workload{
	{
		name: "rd-weak",
		why:  "RD weak scaling P=1..125 at n=10, 3 steps: the traffic results/*.txt came from; set-up dominated (sparse build, fem assembly), P=1 is the serial baseline",
		warm: func(sz sizes, seed uint64) error { return warmJob("rd", "ec2", sz.weakN, seed) },
		run:  runRDWeak,
	},
	{
		name: "ns-steady",
		why:  "one 27-rank Navier-Stokes job of 40 steps on lagrange: matrices built once, then refill + warm-workspace CG/BiCGStab/ILU0 per step; bypasses the build path rd-weak stresses",
		warm: func(sz sizes, seed uint64) error { return warmJob("ns", "lagrange", sz.nsN, seed) },
		run:  runNSSteady,
	},
	{
		name: "rd-wide",
		why:  "the paper's top point, P=1000 with 8 elements per rank: 1000 goroutines and tiny messages, so mp mailboxes dominate and numerics are small",
		warm: func(sz sizes, seed uint64) error { return warmJob("rd", "ec2", sz.wideN, seed) },
		run:  runRDWide,
	},
	{
		name: "faults-storm",
		why:  "supervised restart and migrate runs under a 3-node reclamation wave, then journal write, re-read and diff: checkpoint write and restore, buddy mirror, journal encode and parse",
		warm: func(sz sizes, seed uint64) error { return warmJob("rd", "ec2", sz.stormN, seed) },
		run:  runFaultsStorm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one pass of a workload produced: the op ledger, the
// virtual-clock numbers and the counts the per-layer report takes from the
// program's own reports.
type outcome struct {
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// VirtS and VirtUSD are the workload's virtual seconds and dollars;
	// Digest is the SHA-256 over the canonical virtual numbers of every
	// report of the pass, so two commits can be compared exactly.
	VirtS   float64 `json:"virt_s"`
	VirtUSD float64 `json:"virt_usd"`
	Digest  string  `json:"virt_digest"`
	// JournalSHA covers the journals faults-storm writes ("" elsewhere).
	JournalSHA string `json:"journal_sha,omitempty"`
	// Counts are layer counts read off the reports (solver iterations,
	// error norms, supervisor attempts).
	Counts map[string]float64 `json:"counts"`

	digest hash.Hash
}

func newOutcome() *outcome {
	return &outcome{Counts: map[string]float64{}, digest: sha256.New()}
}

// op records one operation: a job that ran or a check that was made.
func (o *outcome) op(ok bool, format string, args ...any) bool {
	o.Ops++
	if !ok {
		o.Failed++
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (o *outcome) seal() *outcome {
	o.Digest = hex.EncodeToString(o.digest.Sum(nil))
	return o
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestReport feeds every virtual number of a job report to the digest in
// a fixed order.
func digestReport(w io.Writer, rep *core.Report) {
	it := rep.Iter
	fmt.Fprintf(w, "%s %s %d %d %s", rep.Platform, rep.App, rep.Ranks, rep.Nodes, fmtF(rep.QueueWaitS))
	for _, v := range []float64{it.AvgAssembly, it.AvgPrecond, it.AvgSolve, it.AvgOther,
		it.MaxTotal, it.CommFraction, float64(it.Steps), rep.CostPerIter, rep.SpotCostPerIter} {
		fmt.Fprintf(w, " %s", fmtF(v))
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, fmtF(rep.Metrics[k]))
	}
	fmt.Fprintln(w)
}

// spanApp is the core.App decorator of the traced pass: one span per
// rank's App.Run, child of the job's Target.Run span.
type spanApp struct {
	core.App
	tr  *tracer
	job int
}

func (a spanApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	id := a.tr.begin(a.Name()+".Run", a.job)
	defer a.tr.end(id)
	return a.App.Run(r)
}

// runJob is one Target.Run point. Under a tracer it is wrapped in a job
// span and the app is decorated; untraced it is the plain call.
func runJob(tg *core.Target, spec core.JobSpec, tr *tracer) (*core.Report, error) {
	if tr == nil {
		return tg.Run(spec)
	}
	job := tr.begin("core.Target.Run", 0)
	defer tr.end(job)
	spec.App = spanApp{App: spec.App, tr: tr, job: job}
	return tg.Run(spec)
}

// oneJob builds the platform's target and runs a single job on it.
func oneJob(platform string, seed uint64, app func() (core.App, error), spec core.JobSpec, tr *tracer) (*core.Report, error) {
	tg, err := core.NewTarget(platform, seed)
	if err != nil {
		return nil, err
	}
	if spec.App, err = app(); err != nil {
		return nil, err
	}
	return runJob(tg, spec, tr)
}

// warmJob is the set-up's reduced job: eight ranks at the workload's
// per-rank size, two steps.
func warmJob(app, platform string, n int, seed uint64) error {
	build, fields := core.WeakRD, 1
	if app == "ns" {
		build, fields = core.WeakNS, 4
	}
	_, err := oneJob(platform, seed, func() (core.App, error) { return build(8, n, 2) },
		core.JobSpec{Ranks: 8, SkipSteps: 1, MemPerRankGB: core.MemPerRankGB(n, fields)}, nil)
	return err
}

// checkRD records the job and its accuracy check, and accumulates the RD
// layer counts.
func (o *outcome) checkRD(what string, rep *core.Report, err error, steps int) bool {
	if !o.op(err == nil, "%s: %v", what, err) {
		return false
	}
	digestReport(o.digest, rep)
	e := rep.Metrics["max_err"]
	o.op(e <= rdMaxErrLimit, "%s: max_err %g > %g", what, e, rdMaxErrLimit)
	if e > o.Counts["rd.max_err"] {
		o.Counts["rd.max_err"] = e
	}
	o.Counts["rd.solve_iters"] += rep.Metrics["avg_solve_iters"] * float64(steps)
	o.Counts["core.jobs"]++
	o.Counts["mp.virt_comm_frac"] = rep.Iter.CommFraction
	return true
}

func runRDWeak(sz sizes, seed uint64, tr *tracer, run *obs.Run) *outcome {
	o := newOutcome()
	opt := bench.Options{PerRankN: sz.weakN, Steps: 3, SkipSteps: 1, MaxRanks: sz.weakMax, Seed: seed, Obs: run}
	var points []bench.Point
	if tr == nil {
		s, err := bench.RunWeak("rd", "ec2", opt)
		if err != nil {
			o.op(false, "rd-weak: %v", err)
			return o.seal()
		}
		points = s.Points
	} else {
		// The traced pass repeats RunWeak's loop so that it can decorate
		// the app; the equal digest shows it is the same work.
		tg, err := core.NewTarget("ec2", seed)
		if err != nil {
			o.op(false, "rd-weak: %v", err)
			return o.seal()
		}
		for _, ranks := range bench.WeakSeries {
			if ranks > sz.weakMax {
				break
			}
			a, err := core.WeakRD(ranks, opt.PerRankN, opt.Steps)
			var rep *core.Report
			if err == nil {
				rep, err = runJob(tg, core.JobSpec{Ranks: ranks, App: a, SkipSteps: opt.SkipSteps,
					MemPerRankGB: core.MemPerRankGB(opt.PerRankN, 1), Obs: run}, tr)
			}
			points = append(points, bench.Point{Ranks: ranks, Report: rep, Err: err})
		}
	}
	for _, pt := range points {
		if o.checkRD(fmt.Sprintf("rd-weak P=%d", pt.Ranks), pt.Report, pt.Err, opt.Steps) {
			o.VirtS, o.VirtUSD = pt.Report.Iter.MaxTotal, pt.Report.CostPerIter
		}
	}
	return o.seal()
}

func runNSSteady(sz sizes, seed uint64, tr *tracer, run *obs.Run) *outcome {
	o := newOutcome()
	rep, err := oneJob("lagrange", seed, func() (core.App, error) { return core.WeakNS(sz.nsRanks, sz.nsN, sz.nsSteps) },
		core.JobSpec{Ranks: sz.nsRanks, SkipSteps: sz.nsSkip, MemPerRankGB: core.MemPerRankGB(sz.nsN, 4), Obs: run}, tr)
	if !o.op(err == nil, "ns-steady: %v", err) {
		return o.seal()
	}
	digestReport(o.digest, rep)
	m := rep.Metrics
	o.op(m["vel_max_err"] <= nsVelErrLimit, "ns-steady: vel_max_err %g > %g", m["vel_max_err"], nsVelErrLimit)
	o.op(m["pres_l2_err"] <= nsPresErrLimit, "ns-steady: pres_l2_err %g > %g", m["pres_l2_err"], nsPresErrLimit)
	o.Counts["nse.vel_max_err"] = m["vel_max_err"]
	o.Counts["nse.vel_iters"] = m["avg_vel_iters"] * float64(sz.nsSteps)
	o.Counts["nse.pres_iters"] = m["avg_pres_iters"] * float64(sz.nsSteps)
	o.Counts["core.jobs"] = 1
	o.Counts["mp.virt_comm_frac"] = rep.Iter.CommFraction
	o.VirtS, o.VirtUSD = rep.Iter.MaxTotal, rep.CostPerIter
	return o.seal()
}

func runRDWide(sz sizes, seed uint64, tr *tracer, run *obs.Run) *outcome {
	o := newOutcome()
	rep, err := oneJob("ec2", seed, func() (core.App, error) { return core.WeakRD(sz.wideRanks, sz.wideN, sz.wideSteps) },
		core.JobSpec{Ranks: sz.wideRanks, SkipSteps: 1, MemPerRankGB: core.MemPerRankGB(sz.wideN, 1), Obs: run}, tr)
	if o.checkRD("rd-wide", rep, err, sz.wideSteps) {
		o.VirtS, o.VirtUSD = rep.Iter.MaxTotal, rep.CostPerIter
	}
	return o.seal()
}

// runFaultsStorm always journals (the journal is part of the workload), so
// the run argument — the observed pass's extra observer — is unused: each
// supervised run gets its own.
func runFaultsStorm(sz sizes, seed uint64, tr *tracer, _ *obs.Run) *outcome {
	o := newOutcome()
	journals := map[string][]byte{}
	sha := sha256.New()
	for _, policy := range []string{bench.PolicyRestart, bench.PolicyMigrate} {
		run := obs.NewRun()
		id := tr.begin("bench.RunSupervised."+policy, 0)
		rep, err := bench.RunSupervised(bench.FaultOptions{
			App: "rd", Platform: "ec2", Policy: policy, Seed: seed, Obs: run,
			Ranks: sz.stormRanks, RanksPerNode: sz.stormRPN, PerRankN: sz.stormN,
			Steps: sz.stormSteps, StormWave: sz.stormWv,
		})
		tr.end(id)
		if !o.op(err == nil, "faults-storm %s: %v", policy, err) {
			continue
		}
		digestReport(o.digest, rep.Clean)
		digestReport(o.digest, rep.Final)
		fmt.Fprintf(o.digest, "%s %d %d %d", policy, rep.Attempts, rep.FinalRanks, len(rep.Decisions))
		for _, v := range []float64{rep.CleanVirtualS, rep.FinalVirtualS, rep.WastedVirtualS,
			rep.BackoffS, rep.RecoveryCostUSD, rep.MakespanS} {
			fmt.Fprintf(o.digest, " %s", fmtF(v))
		}
		fmt.Fprintln(o.digest)

		// The recovered solution must be the clean one to the bit. (The
		// average solve count is not compared: the final attempt averages
		// only the steps it ran itself.)
		same := rep.Final.Metrics["max_err"] == rep.Clean.Metrics["max_err"] &&
			rep.Final.Metrics["l2_err"] == rep.Clean.Metrics["l2_err"]
		o.op(same, "faults-storm %s: recovered metrics %v differ from clean %v", policy, rep.Final.Metrics, rep.Clean.Metrics)
		o.op(rep.FinalRanks == rep.Ranks, "faults-storm %s: finished on %d of %d ranks", policy, rep.FinalRanks, rep.Ranks)
		o.op(rep.Final.Metrics["max_err"] <= rdMaxErrLimit, "faults-storm %s: max_err %g", policy, rep.Final.Metrics["max_err"])

		var j bytes.Buffer
		id = tr.begin("obs.WriteJournal."+policy, 0)
		err = run.WriteJournal(&j)
		tr.end(id)
		id = tr.begin("obs.ReadJournal."+policy, 0)
		var evs []obs.Event
		if err == nil {
			evs, err = obs.ReadJournal(bytes.NewReader(j.Bytes()))
		}
		tr.end(id)
		var again []byte
		for i := range evs {
			again = obs.AppendEventLine(again, &evs[i])
		}
		o.op(err == nil && bytes.Equal(again, j.Bytes()),
			"faults-storm %s: journal of %d bytes does not re-encode identically (%v)", policy, j.Len(), err)
		registryCounts(run, o.Counts)
		journals[policy] = j.Bytes()
		journals[policy+"-reread"] = again
		sha.Write(j.Bytes())

		o.VirtS += rep.MakespanS
		o.VirtUSD += rep.RecoveryCostUSD
		o.Counts["bench.attempts"] += float64(rep.Attempts)
		o.Counts["bench.decisions"] += float64(len(rep.Decisions))
		o.Counts["bench.wasted_virt_s"] += rep.WastedVirtualS
		o.Counts["bench.useful_virt_frac_"+policy] = rep.CleanVirtualS / rep.MakespanS
		o.Counts["obs.events"] += float64(len(evs))
		o.Counts["obs.journal_bytes"] += float64(j.Len())
		o.Counts["core.jobs"] += float64(rep.Attempts) + 1
	}
	o.JournalSHA = hex.EncodeToString(sha.Sum(nil))
	if o.Failed > 0 {
		return o.seal()
	}
	diff := func(a, b string) (*triage.Divergence, error) {
		id := tr.begin("triage.Diff."+a+"."+b, 0)
		defer tr.end(id)
		d, _, err := triage.Diff(a, bytes.NewReader(journals[a]), b, bytes.NewReader(journals[b]), 3)
		return d, err
	}
	d, err := diff(bench.PolicyRestart, bench.PolicyRestart+"-reread")
	o.op(err == nil && d == nil, "faults-storm: restart journal differs from itself re-read (%v)", err)
	d, err = diff(bench.PolicyRestart, bench.PolicyMigrate)
	o.op(err == nil && d != nil, "faults-storm: restart and migrate journals do not diverge (%v)", err)
	return o.seal()
}
