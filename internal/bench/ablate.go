package bench

import (
	"fmt"
	"strings"

	"heterohpc/internal/core"
	"heterohpc/internal/mesh"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/partition"
)

// Ablation experiments for the design choices called out in DESIGN.md:
// preconditioner selection, node packing (NIC sharing), the interconnect
// counterfactual, and partitioner quality.

// FormatPrecondAblation runs the RD application with each preconditioner on
// one platform and tabulates how the choice moves the paper's three phases
// — the (iiia)/(iiib) trade-off of §IV-C.
func FormatPrecondAblation(platformName string, ranks int, o Options) (string, error) {
	o = o.withDefaults()
	tg, err := core.NewTarget(platformName, o.Seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Preconditioner ablation: RD, %d ranks on %s, %d³ elements/rank\n",
		ranks, platformName, o.PerRankN)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %12s %8s\n",
		"precond", "assembly", "precond", "solve", "max total", "iters")
	for _, pc := range []string{"none", "jacobi", "sgs", "ilu0"} {
		a, err := core.Weak("rd", ranks, o.PerRankN, o.Steps)
		if err != nil {
			return "", err
		}
		app := a.(core.RDApp)
		app.Cfg.Precond, app.Cfg.MaxIter = pc, 4000
		rep, err := tg.Run(core.JobSpec{Ranks: ranks, App: app, SkipSteps: o.SkipSteps, Obs: o.Obs})
		if err != nil {
			return "", fmt.Errorf("bench: %s ablation: %w", pc, err)
		}
		it := rep.Iter
		fmt.Fprintf(&b, "%-8s %10.4f %10.4f %10.4f %12.4f %8.0f\n",
			pc, it.AvgAssembly, it.AvgPrecond, it.AvgSolve, it.MaxTotal,
			rep.Metrics["avg_solve_iters"])
	}
	return b.String(), nil
}

// FormatPackingAblation spreads a fixed-rank job over more nodes (fewer
// ranks per node) on a whole-node-billed platform: each rank gets a larger
// NIC share, but every extra node is billed in full — quantifying the
// paper's remark that EC2's 16-core instances let the assembly "exploit
// notably fewer hosts".
func FormatPackingAblation(platformName string, ranks int, o Options) (string, error) {
	o = o.withDefaults()
	tg, err := core.NewTarget(platformName, o.Seed)
	if err != nil {
		return "", err
	}
	cpn := tg.Platform.CoresPerNode()
	var b strings.Builder
	fmt.Fprintf(&b, "Node-packing ablation: RD, %d ranks on %s (%d cores/node)\n",
		ranks, platformName, cpn)
	fmt.Fprintf(&b, "%12s %6s %12s %8s %12s\n", "ranks/node", "nodes", "iter[s]", "comm%", "$/iter")
	for rpn := cpn; rpn >= 1; rpn /= 2 {
		app, err := core.WeakRD(ranks, o.PerRankN, o.Steps)
		if err != nil {
			return "", err
		}
		rep, err := tg.Run(core.JobSpec{
			Ranks: ranks, App: app, SkipSteps: o.SkipSteps, RanksPerNode: rpn, Obs: o.Obs,
		})
		if err != nil {
			fmt.Fprintf(&b, "%12d %6s -- %v\n", rpn, "-", err)
			continue
		}
		fmt.Fprintf(&b, "%12d %6d %12.4f %7.1f%% %12.5f\n",
			rpn, rep.Nodes, rep.Iter.MaxTotal, rep.Iter.CommFraction*100, rep.CostPerIter)
	}
	return b.String(), nil
}

// FormatInterconnectAblation answers the counterfactual behind the paper's
// summary ("a modern local computing cluster, with an efficient
// interconnection network will outperform an on-demand assembly"): the same
// platform hardware re-equipped with each interconnect model.
func FormatInterconnectAblation(platformName string, ranks int, o Options) (string, error) {
	o = o.withDefaults()
	base, err := core.NewTarget(platformName, o.Seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Interconnect ablation: RD, %d ranks on %s hardware\n", ranks, platformName)
	fmt.Fprintf(&b, "%-12s %12s %8s\n", "network", "iter[s]", "comm%")
	for _, net := range []*netmodel.Model{netmodel.GigE, netmodel.TenGigE, netmodel.IBDDR4X} {
		variant := *base.Platform
		variant.Name = platformName + "+" + net.Name
		variant.Net = net
		tg, err := core.NewTargetFromPlatform(&variant, o.Seed)
		if err != nil {
			return "", err
		}
		app, err := core.WeakRD(ranks, o.PerRankN, o.Steps)
		if err != nil {
			return "", err
		}
		rep, err := tg.Run(core.JobSpec{Ranks: ranks, App: app, SkipSteps: o.SkipSteps, Obs: o.Obs})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s %12.4f %7.1f%%\n",
			net.Name, rep.Iter.MaxTotal, rep.Iter.CommFraction*100)
	}
	return b.String(), nil
}

// FormatPartitionAblation compares the three partitioners' quality metrics
// on a cube mesh — the load balance ParMETIS is responsible for in §IV-C.
func FormatPartitionAblation(meshN, nparts int) (string, error) {
	m := mesh.NewUnitCube(meshN)
	g := partition.DualGraph{M: m}
	var b strings.Builder
	fmt.Fprintf(&b, "Partitioner ablation: %d³ elements into %d parts\n", meshN, nparts)
	fmt.Fprintf(&b, "%-8s %10s %10s %12s\n", "method", "max load", "imbalance", "edge cut")
	type entry struct {
		name string
		part []int
		err  error
	}
	var entries []entry
	if gp, err := mesh.CubeGrid(nparts); err == nil {
		bp, berr := partition.Block(m, gp, gp, gp)
		entries = append(entries, entry{"block", bp, berr})
	}
	rp, rerr := partition.RCB(m, nparts)
	entries = append(entries, entry{"rcb", rp, rerr})
	gp2, gerr := partition.Greedy(g, nparts)
	entries = append(entries, entry{"greedy", gp2, gerr})
	for _, e := range entries {
		if e.err != nil {
			return "", e.err
		}
		q, err := partition.Evaluate(g, e.part, nparts)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %10d %10.3f %12d\n", e.name, q.MaxLoad, q.Imbalance, q.EdgeCut)
	}
	return b.String(), nil
}
