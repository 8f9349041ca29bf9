// Package cost implements the billing models of §VII-D and the
// per-iteration cost computation behind Table II and Figures 6–7.
//
// Two billing granularities exist among the four platforms: flat per-core
// rates (puma 2.3¢, ellipse 5¢, lagrange 19.19¢ per core-hour) and
// whole-node billing (EC2 charges $2.40 per cc2.8xlarge instance-hour
// regardless of how many of its 16 cores the job uses, "this price
// increases if not all cores are utilized"). The "ec2 mix" curves use the
// observed spot price instead of the on-demand price.
package cost

import (
	"fmt"

	"heterohpc/internal/platform"
)

// Billing prices jobs on one platform.
type Billing struct {
	// Name labels report columns.
	Name string
	// PerCoreHour is the flat core rate in dollars (0 when node-billed).
	PerCoreHour float64
	// PerNodeHour is the whole-node rate in dollars (0 when core-billed).
	PerNodeHour float64
	// CoresPerNode is needed for whole-node billing.
	CoresPerNode int
	// WholeNode selects node-granular billing.
	WholeNode bool
}

// ForPlatform derives the on-demand billing model of p.
func ForPlatform(p *platform.Platform) Billing {
	if p.BillWholeNodes {
		return Billing{
			Name:         p.Name,
			PerNodeHour:  p.CostPerNodeHour,
			CoresPerNode: p.CoresPerNode(),
			WholeNode:    true,
		}
	}
	return Billing{Name: p.Name, PerCoreHour: p.CostPerCoreHour}
}

// SpotForPlatform derives the spot-price billing model of p (EC2 "mix"),
// or an error for platforms without a spot market.
func SpotForPlatform(p *platform.Platform) (Billing, error) {
	if p.SpotPerNodeHour == 0 {
		return Billing{}, fmt.Errorf("cost: %s has no spot market", p.Name)
	}
	return Billing{
		Name:         p.Name + " mix",
		PerNodeHour:  p.SpotPerNodeHour,
		CoresPerNode: p.CoresPerNode(),
		WholeNode:    true,
	}, nil
}

// JobCost returns the dollars charged for running ranks ranks for seconds
// seconds. Whole-node platforms charge every occupied node fully; per-core
// platforms charge exactly the cores used (the paper's flat rates).
func (b Billing) JobCost(seconds float64, ranks int) float64 {
	if seconds < 0 || ranks < 1 {
		return 0
	}
	hours := seconds / 3600
	if b.WholeNode {
		nodes := (ranks + b.CoresPerNode - 1) / b.CoresPerNode
		return float64(nodes) * b.PerNodeHour * hours
	}
	return float64(ranks) * b.PerCoreHour * hours
}

// PerIteration returns the cost of one solver iteration lasting iterSeconds
// on ranks ranks — the quantity plotted in Figures 6 and 7 and tabulated in
// Table II.
func (b Billing) PerIteration(iterSeconds float64, ranks int) float64 {
	return b.JobCost(iterSeconds, ranks)
}
