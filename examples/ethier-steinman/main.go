// Ethier–Steinman: run the paper's second test case — the incompressible
// Navier–Stokes equations with the exact fully-3D Ethier–Steinman solution
// — on the EC2 cc2.8xlarge model, reporting accuracy against the exact
// velocity and pressure fields and the heavier per-iteration profile that
// distinguishes Figure 5 from Figure 4.
package main

import (
	"fmt"
	"log"

	"heterohpc/internal/core"
)

func main() {
	target, err := core.NewTarget("ec2", 1)
	if err != nil {
		log.Fatal(err)
	}

	// 8 ranks × 6³ elements on [-1,1]³, 3 BDF2 steps of the projection
	// solver: per step, three BiCGStab velocity solves plus one CG pressure
	// Poisson solve.
	app, err := core.WeakNS(8, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := target.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform       : %s (%d ranks on %d × cc2.8xlarge)\n",
		rep.Platform, rep.Ranks, rep.Nodes)
	fmt.Printf("assembly       : %.4f s/iter (velocity operator reassembled each step)\n",
		rep.Iter.AvgAssembly)
	fmt.Printf("preconditioner : %.4f s/iter (ILU(0) refactorisation)\n", rep.Iter.AvgPrecond)
	fmt.Printf("solve          : %.4f s/iter (3 × BiCGStab + CG, avg %.0f + %.0f iters)\n",
		rep.Iter.AvgSolve, rep.Metrics["avg_vel_iters"], rep.Metrics["avg_pres_iters"])
	fmt.Printf("max iteration  : %.4f s (communication share %.1f%%)\n",
		rep.Iter.MaxTotal, rep.Iter.CommFraction*100)
	fmt.Printf("cost           : $%.6f on-demand, $%.6f at spot, per iteration\n",
		rep.CostPerIter, rep.SpotCostPerIter)
	fmt.Printf("velocity error : max %.3e, L2 %.3e\n",
		rep.Metrics["vel_max_err"], rep.Metrics["vel_l2_err"])
	fmt.Printf("pressure error : L2 %.3e\n", rep.Metrics["pres_l2_err"])

	if rep.Metrics["vel_l2_err"] > 0.2 {
		log.Fatal("velocity verification failed")
	}
	fmt.Println("OK: flow matches the Ethier–Steinman exact solution to discretisation accuracy.")
}
