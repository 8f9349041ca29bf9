// Package sched models the execution layer of the four platforms (§V,
// §VII-A): the job schedulers (PBS on puma/lagrange, SGE on ellipse, plain
// shell on EC2), their launch limits, and the availability dimension the
// paper highlights — "local and grid resources are often subject to long
// queue wait times" while "IaaS's provide resources immediately".
//
// Two empirically-observed failure modes are encoded as typed errors so the
// weak-scaling harness truncates its series exactly where the paper's runs
// did: ellipse could not launch jobs above 512 processes (mpiexec failed to
// initialise that many remote daemons through the serial-only SGE), and
// lagrange aborted jobs above 343 processes on a configured InfiniBand
// adapter data-volume cap.
package sched

import (
	"errors"
	"fmt"
	"math"

	"heterohpc/internal/platform"
	"heterohpc/internal/stats"
)

// Typed scheduling failures.
var (
	// ErrTooLarge: the job asks for more cores than the machine has.
	ErrTooLarge = errors.New("sched: job exceeds machine size")
	// ErrLaunchLimit: the launcher cannot start that many remote processes
	// (ellipse above 512 ranks).
	ErrLaunchLimit = errors.New("sched: launcher failed to start remote MPI daemons")
	// ErrIBVolumeCap: the configured InfiniBand adapter data-volume limit
	// aborts the job (lagrange above 343 ranks).
	ErrIBVolumeCap = errors.New("sched: InfiniBand adapter data-volume limit exceeded")
	// ErrInsufficientMemory: the per-rank working set exceeds RAM per core.
	ErrInsufficientMemory = errors.New("sched: insufficient memory per core")
)

// Scheduler is the execution manager of one platform.
type Scheduler struct {
	p   *platform.Platform
	rng *stats.RNG
}

// New builds a scheduler for p with a deterministic availability stream.
func New(p *platform.Platform, seed uint64) *Scheduler {
	return &Scheduler{p: p, rng: stats.NewRNG(seed)}
}

// Admit checks whether a job of ranks ranks needing memPerRankGB gigabytes
// per rank can run, returning one of the typed errors above otherwise.
func (s *Scheduler) Admit(ranks int, memPerRankGB float64) error {
	if ranks < 1 {
		return fmt.Errorf("sched: non-positive rank count %d", ranks)
	}
	p := s.p
	if ranks > p.TotalCores() {
		return fmt.Errorf("%w: %d ranks on %d cores (%s)",
			ErrTooLarge, ranks, p.TotalCores(), p.Name)
	}
	if p.MaxLaunchRanks > 0 && ranks > p.MaxLaunchRanks {
		return fmt.Errorf("%w: %d ranks > launch limit %d (%s)",
			ErrLaunchLimit, ranks, p.MaxLaunchRanks, p.Name)
	}
	if p.MaxVolumeRanks > 0 && ranks > p.MaxVolumeRanks {
		return fmt.Errorf("%w: %d ranks > volume-capped %d (%s)",
			ErrIBVolumeCap, ranks, p.MaxVolumeRanks, p.Name)
	}
	if memPerRankGB > p.RAMPerCoreGB() {
		return fmt.Errorf("%w: %.2f GB/rank > %.2f GB/core (%s)",
			ErrInsufficientMemory, memPerRankGB, p.RAMPerCoreGB(), p.Name)
	}
	return nil
}

// QueueWait samples the seconds a job of nodes nodes waits before starting.
// The model is log-normal around the platform's median, inflated by the
// fraction of the machine requested (big jobs wait longer on shared
// clusters and grids; EC2 boot time is nearly flat).
func (s *Scheduler) QueueWait(nodes int) float64 {
	p := s.p
	frac := float64(nodes) / float64(p.MaxNodes)
	if frac > 1 {
		frac = 1
	}
	median := p.QueueWaitMedianS * (1 + 2*frac)
	mu := math.Log(median)
	return s.rng.LogNormal(mu, p.QueueWaitSigma)
}

// QueueWaitQuantiles summarises the wait distribution over n samples
// (used by the availability report, Experiment E9).
func (s *Scheduler) QueueWaitQuantiles(nodes, n int) (p10, p50, p90 float64) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.QueueWait(nodes)
	}
	return stats.Quantile(xs, 0.1), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.9)
}
