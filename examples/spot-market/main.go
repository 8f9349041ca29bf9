// Spot-market: walk through the paper's cost-aware EC2 strategy (§VII-B,
// Table II). Acquire a 63-instance fleet twice — fully-paid instances in a
// single placement group, and spot requests across four placement groups
// topped up with on-demand hosts — then run the reaction–diffusion workload
// on both assemblies and compare time and money.
package main

import (
	"fmt"
	"log"

	"heterohpc/internal/core"
	"heterohpc/internal/spot"
)

func main() {
	const ranks = 1000 // 63 × 16-core cc2.8xlarge
	target, err := core.NewTarget("ec2", 2012)
	if err != nil {
		log.Fatal(err)
	}
	nodes := target.Platform.NodesFor(ranks)
	market := spot.NewMarket(2012, target.Platform.CostPerNodeHour)

	fmt.Printf("Acquiring %d cc2.8xlarge instances two ways:\n\n", nodes)

	full, err := market.AcquireOnDemand(nodes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full : %d on-demand instances, 1 placement group, $%.2f/instance-hour\n",
		len(full.Nodes), full.BlendedNodeHour())

	mix, err := market.AcquireMix(nodes, target.Platform.CostPerNodeHour/2, 4, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mix  : %d spot + %d on-demand across %d groups (%d market rounds), blended $%.2f/instance-hour\n",
		mix.SpotCount(), mix.OnDemandCount(), mix.Groups, mix.Rounds, mix.BlendedNodeHour())
	if mix.SpotCount() < nodes {
		fmt.Printf("       (as in the study: the spot market never filled all %d hosts —\n", nodes)
		fmt.Println("        regularly-priced hosts were added to reach the configuration)")
	}

	// Run a reduced version of the 1000-process RD workload on both fleets.
	fmt.Println("\nRunning the RD workload on both assemblies (reduced mesh, 4³/rank)...")
	run := func(groups []int) *core.Report {
		app, err := core.WeakRD(ranks, 4, 2)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := target.Run(core.JobSpec{
			Ranks: ranks, App: app, SkipSteps: 1, GroupOfNode: groups,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	repFull := run(nil)
	repMix := run(mix.GroupOfNode())

	fullCost := target.Billing.PerIteration(repFull.Iter.MaxTotal, ranks)
	mixEst := spot.EstimateSpotCost(repMix.Iter.MaxTotal, nodes, target.Platform.SpotPerNodeHour)
	fmt.Printf("full : %7.3f s/iter, $%.4f/iter (real, on-demand)\n", repFull.Iter.MaxTotal, fullCost)
	fmt.Printf("mix  : %7.3f s/iter, $%.4f/iter (estimated at the spot price)\n", repMix.Iter.MaxTotal, mixEst)
	fmt.Printf("\nplacement-group speedup: %.1f%% — ", (repMix.Iter.MaxTotal/repFull.Iter.MaxTotal-1)*100)
	fmt.Println("the single group buys essentially nothing,")
	fmt.Printf("while costing %.1f× as much — the paper's Table II finding.\n", fullCost/mixEst)
}
