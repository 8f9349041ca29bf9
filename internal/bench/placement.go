package bench

import (
	"fmt"
	"strings"

	"heterohpc/internal/core"
	"heterohpc/internal/spot"
)

// PlacementRow is one row of Table II.
type PlacementRow struct {
	Ranks     int
	Instances int
	// Full: on-demand instances in a single placement group.
	FullTime float64
	FullCost float64
	// Mix: spot + on-demand top-up across several placement groups.
	MixTime    float64
	MixEstCost float64
	// SpotShare is the fraction of the mix fleet acquired at spot prices.
	SpotShare float64
	Err       error
}

// PlacementResult is the Table II experiment.
type PlacementResult struct {
	Rows []PlacementRow
	// Groups is the placement-group count of the mix configuration.
	Groups int
}

// RunPlacement reproduces Table II: the RD application on EC2 cc2.8xlarge,
// once with fully-paid instances in a single placement group and once with
// a spot-request mix spread over four placement groups in the same
// availability zone.
func RunPlacement(o Options) (*PlacementResult, error) {
	o = o.withDefaults()
	tg, err := core.NewTarget("ec2", o.Seed)
	if err != nil {
		return nil, err
	}
	const groups = 4
	res := &PlacementResult{Groups: groups}
	for _, ranks := range WeakSeries {
		if ranks > o.MaxRanks {
			break
		}
		// Each configuration is an independent acquisition (the paper
		// assembled each fleet separately), so every row sees fresh market
		// supply.
		market := spot.NewMarket(o.Seed+uint64(ranks), tg.Platform.CostPerNodeHour)
		market.Observe(o.Obs)
		full, err := weakJob("rd", ranks, o)
		if err != nil {
			return nil, err
		}
		nodes := tg.Platform.NodesFor(ranks)
		row := PlacementRow{Ranks: ranks, Instances: nodes}

		// Full: single placement group, on-demand.
		fullRep, err := tg.Run(full)
		if err != nil {
			row.Err = err
			res.Rows = append(res.Rows, row)
			break
		}
		row.FullTime = fullRep.Iter.MaxTotal
		row.FullCost = tg.Billing.PerIteration(fullRep.Iter.MaxTotal, ranks)

		// Mix: acquire spot + on-demand across placement groups; the fleet
		// layout feeds the network model through GroupOfNode.
		asm, err := market.AcquireMix(nodes, tg.Platform.CostPerNodeHour/2, groups, 6)
		if err != nil {
			return nil, err
		}
		mix, err := weakJob("rd", ranks, o)
		if err != nil {
			return nil, err
		}
		mix.GroupOfNode = asm.GroupOfNode()
		mixRep, err := tg.Run(mix)
		if err != nil {
			row.Err = err
			res.Rows = append(res.Rows, row)
			break
		}
		row.MixTime = mixRep.Iter.MaxTotal
		// Table II prices the mix at the pure spot rate ("est. cost").
		row.MixEstCost = spot.EstimateSpotCost(mixRep.Iter.MaxTotal, nodes,
			tg.Platform.SpotPerNodeHour)
		row.SpotShare = float64(asm.SpotCount()) / float64(len(asm.Nodes))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatPlacement renders Table II.
func FormatPlacement(r *PlacementResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — EC2 cc2.8xlarge assemblies: full on-demand, single placement group\n")
	fmt.Fprintf(&b, "vs. spot mix across %d placement groups (RD application)\n", r.Groups)
	fmt.Fprintf(&b, "%6s %4s | %10s %14s | %10s %14s %6s\n",
		"#mpi", "#", "time[s]", "real cost[$]", "time[s]", "est. cost[$]", "spot%")
	for _, row := range r.Rows {
		if row.Err != nil {
			fmt.Fprintf(&b, "%6d %4d | -- %s\n", row.Ranks, row.Instances, row.Err)
			continue
		}
		fmt.Fprintf(&b, "%6d %4d | %10.2f %14.4f | %10.2f %14.4f %5.0f%%\n",
			row.Ranks, row.Instances, row.FullTime, row.FullCost,
			row.MixTime, row.MixEstCost, row.SpotShare*100)
	}
	return b.String()
}
