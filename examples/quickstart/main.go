// Quickstart: run the paper's reaction–diffusion test case on 8 ranks of
// the in-house cluster model (puma), verify the solution against the exact
// manufactured solution u = t²(x²+y²+z²), and print the per-phase iteration
// profile and billing — the smallest end-to-end tour of the library.
package main

import (
	"fmt"
	"log"

	"heterohpc/internal/core"
)

func main() {
	// The "home" platform of the paper's application.
	target, err := core.NewTarget("puma", 1)
	if err != nil {
		log.Fatal(err)
	}

	// 8 MPI ranks, each loaded with 10³ mesh elements, 4 BDF2 steps.
	app, err := core.WeakRD(8, 10, 4)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := target.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform      : %s (%d ranks on %d nodes)\n", rep.Platform, rep.Ranks, rep.Nodes)
	fmt.Printf("queue wait    : %.0f s (sampled from the PBS queue model)\n", rep.QueueWaitS)
	fmt.Printf("assembly      : %.4f s/iter\n", rep.Iter.AvgAssembly)
	fmt.Printf("preconditioner: %.4f s/iter\n", rep.Iter.AvgPrecond)
	fmt.Printf("solve         : %.4f s/iter\n", rep.Iter.AvgSolve)
	fmt.Printf("max iteration : %.4f s (communication share %.1f%%)\n",
		rep.Iter.MaxTotal, rep.Iter.CommFraction*100)
	fmt.Printf("cost          : $%.6f per iteration at %s billing\n",
		rep.CostPerIter, rep.Platform)
	fmt.Printf("verification  : max |u-u_exact| = %.2e, L2 = %.2e (CG tol 1e-8)\n",
		rep.Metrics["max_err"], rep.Metrics["l2_err"])

	if rep.Metrics["max_err"] > 1e-4 {
		log.Fatal("solution verification failed")
	}
	fmt.Println("OK: solver output matches the exact solution.")
}
