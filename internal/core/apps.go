package core

import (
	"fmt"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

// RDApp adapts the reaction–diffusion solver to the App interface.
type RDApp struct {
	Cfg rd.Config
}

// Name implements App.
func (a RDApp) Name() string { return "rd" }

// Run implements App.
func (a RDApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	res, err := rd.Run(r, a.Cfg)
	if err != nil {
		return nil, nil, err
	}
	var iters float64
	for _, it := range res.SolveIters {
		iters += float64(it)
	}
	metrics := map[string]float64{
		"max_err":         res.MaxErr,
		"l2_err":          res.L2Err,
		"avg_solve_iters": iters / float64(len(res.SolveIters)),
	}
	return res.StepTimes, metrics, nil
}

// NSApp adapts the Navier–Stokes solver to the App interface.
type NSApp struct {
	Cfg nse.Config
}

// Name implements App.
func (a NSApp) Name() string { return "ns" }

// Run implements App.
func (a NSApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	res, err := nse.Run(r, a.Cfg)
	if err != nil {
		return nil, nil, err
	}
	var vel, pres float64
	for i := range res.VelIters {
		vel += float64(res.VelIters[i])
		pres += float64(res.PresIters[i])
	}
	k := float64(len(res.VelIters))
	metrics := map[string]float64{
		"vel_max_err":    res.VelMaxErr,
		"vel_l2_err":     res.VelL2Err,
		"pres_l2_err":    res.PresL2Err,
		"avg_vel_iters":  vel / k,
		"avg_pres_iters": pres / k,
	}
	return res.StepTimes, metrics, nil
}

// Cube builds application name ("rd" or "ns") on a fixed globalN³ mesh
// split over ranks = p³ processes: the unit cube for RD, the Ethier–Steinman
// domain [−1,1]³ for NS. At a fixed globalN it is the strong-scaling job,
// the time-to-completion view of the paper's introduction ("parameterized
// along two dimensions: problem size and number of processing elements");
// Weak sizes globalN with the ranks.
func Cube(name string, ranks, globalN, steps int) (App, error) {
	box := mesh.UnitBox
	switch name {
	case "rd":
	case "ns":
		box = mesh.SymmetricBox
	default:
		return nil, fmt.Errorf("core: unknown application %q (want rd or ns)", name)
	}
	p, err := mesh.CubeGrid(ranks)
	if err != nil {
		return nil, fmt.Errorf("core: scaling needs cubic rank counts: %w", err)
	}
	if globalN < p {
		return nil, fmt.Errorf("core: %d³ mesh cannot be split %d ways per dimension", globalN, p)
	}
	m, err := mesh.NewBox(box, globalN, globalN, globalN)
	if err != nil {
		return nil, err
	}
	grid := [3]int{p, p, p}
	if name == "ns" {
		return NSApp{Cfg: nse.Config{Mesh: m, Grid: grid, Steps: steps}}, nil
	}
	return RDApp{Cfg: rd.Config{Mesh: m, Grid: grid, Steps: steps}}, nil
}

// Weak builds the weak-scaling job of application name for ranks = p³
// processes, each loaded with perRankN³ elements — the paper's loading ("we
// started from a single process loaded with the input mesh of size 20³
// elements and incremented the number of processes as well as the input
// mesh size as cubic powers").
func Weak(name string, ranks, perRankN, steps int) (App, error) {
	p, _ := mesh.CubeGrid(ranks) // 0 on a non-cube, which Cube then refuses
	return Cube(name, ranks, perRankN*p, steps)
}

// WeakRD builds the weak-scaling RD application.
func WeakRD(ranks, perRankN, steps int) (App, error) { return Weak("rd", ranks, perRankN, steps) }

// WeakNS builds the weak-scaling Navier–Stokes application.
func WeakNS(ranks, perRankN, steps int) (App, error) { return Weak("ns", ranks, perRankN, steps) }

// MemPerRankGB estimates the resident working set of one rank holding n³
// elements of a scalar (RD) or 4-field (NS) problem — matrices dominate at
// ~27 nonzeros × (8+4) bytes per row plus solver vectors.
func MemPerRankGB(perRankN int, fields int) float64 {
	dofs := float64((perRankN + 1) * (perRankN + 1) * (perRankN + 1))
	bytes := dofs * (27*12*2 + 30*8) * float64(fields) // two matrices + vectors
	return bytes / (1 << 30)
}
