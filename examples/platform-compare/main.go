// Platform-compare: submit the same 64-process reaction–diffusion job to
// all four platform models and compare what the paper calls the secondary
// attributes — time to completion, dollar cost, queue wait, and whether the
// platform can run the job at all. This is the paper's core exercise in
// miniature: "each of the platforms had its particular benefits and
// drawbacks".
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"heterohpc/internal/core"
	"heterohpc/internal/cost"
)

func main() {
	const ranks = 64
	var ledger cost.Ledger
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "platform\tnodes\tqueue wait\titer time\tcomm%\t$/iter\tverdict")
	for _, name := range []string{"puma", "ellipse", "lagrange", "ec2"} {
		target, err := core.NewTarget(name, 42)
		if err != nil {
			log.Fatal(err)
		}
		app, err := core.WeakRD(ranks, 8, 3)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := target.Run(core.JobSpec{Ranks: ranks, App: app, SkipSteps: 1})
		if err != nil {
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\t-\tcannot run: %v\n", name, err)
			continue
		}
		verdict := "ok"
		if rep.Metrics["max_err"] > 1e-4 {
			verdict = "WRONG ANSWER"
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%.3f s\t%.0f%%\t$%.5f\t%s\n",
			name, rep.Nodes, fmtDur(rep.QueueWaitS), rep.Iter.MaxTotal,
			rep.Iter.CommFraction*100, rep.CostPerIter, verdict)
		steps := float64(rep.Iter.Steps)
		ledger.Add(cost.LedgerEntry{
			Platform: name, App: rep.App, Ranks: rep.Ranks, Nodes: rep.Nodes,
			RunSeconds:  rep.Iter.MaxTotal * steps,
			WaitSeconds: rep.QueueWaitS,
			Dollars:     rep.CostPerIter * steps,
		})
	}
	w.Flush()

	fmt.Println("\nExpense-factor ledger (delivered compute vs. dollars vs. waiting):")
	fmt.Print(ledger.Report())

	fmt.Println("\nAnd the paper's 1000-core question — who can even run it?")
	for _, name := range []string{"puma", "ellipse", "lagrange", "ec2"} {
		target, _ := core.NewTarget(name, 42)
		app, err := core.WeakRD(1000, 4, 1)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := target.Run(core.JobSpec{Ranks: 1000, App: app}); err != nil {
			fmt.Printf("  %-9s: %v\n", name, err)
		} else {
			fmt.Printf("  %-9s: runs the 1000-core task\n", name)
		}
	}
}

func fmtDur(seconds float64) string {
	switch {
	case seconds < 120:
		return fmt.Sprintf("%.0f s", seconds)
	case seconds < 7200:
		return fmt.Sprintf("%.0f min", seconds/60)
	default:
		return fmt.Sprintf("%.1f h", seconds/3600)
	}
}
