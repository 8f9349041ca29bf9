// Package netmodel models the interconnects of the paper's four target
// platforms: Gigabit Ethernet (puma, ellipse), 10-Gigabit Ethernet with
// placement groups (Amazon EC2 cc2.8xlarge), and InfiniBand 4X DDR
// (lagrange), plus the intra-node shared-memory path.
//
// The model is LogGP-flavoured: a point-to-point transfer of b bytes costs
//
//	t = α + b/β_eff
//
// where α is the per-message latency (software stack + wire) and β_eff is
// the effective bandwidth seen by one rank. β_eff accounts for two effects
// that dominate the paper's results:
//
//  1. NIC sharing — all job ranks on a node inject into one NIC. In the
//     bulk-synchronous solvers studied here every rank communicates at the
//     same time, so a node's NIC bandwidth is divided by the number of job
//     ranks placed on it. This is why the 4-core/1GbE puma and ellipse nodes
//     degrade fastest and why EC2's 16-core nodes ("notably fewer hosts")
//     partially compensate for a virtualised network.
//
//  2. Fabric oversubscription — campus Ethernet trees lose bisection
//     bandwidth as more nodes join the job, modelled as
//     β ← β / (1 + ovs·(nodes−1)/ovsNodes). InfiniBand fat-trees keep a
//     near-full bisection (small ovs).
//
// EC2 placement groups add a cross-group latency and bandwidth penalty that
// is deliberately small: Table II of the paper found no measurable benefit
// from a single placement group, and the model reproduces that.
package netmodel

import "fmt"

// Link describes one physical communication path.
type Link struct {
	// Latency is the per-message cost in seconds (α).
	Latency float64
	// Bandwidth is the path bandwidth in bytes per second (β).
	Bandwidth float64
}

// Time returns α + bytes/β for a single unshared transfer.
func (l Link) Time(bytes int) float64 {
	if bytes < 0 {
		panic("netmodel: negative message size")
	}
	return l.Latency + float64(bytes)/l.Bandwidth
}

// Model describes a platform interconnect.
type Model struct {
	// Name identifies the interconnect in reports, e.g. "1GbE".
	Name string
	// Inter is the node-to-node link (the NIC path).
	Inter Link
	// Intra is the shared-memory path between ranks of one node.
	Intra Link
	// Oversub is the oversubscription coefficient: at OversubNodes nodes the
	// per-rank bandwidth has dropped by a factor (1 + Oversub).
	Oversub float64
	// OversubNodes is the node count at which the Oversub penalty is fully
	// applied. Zero disables the oversubscription term.
	OversubNodes int
	// CrossGroupLatency is added to Inter.Latency for messages between EC2
	// placement groups (zero for physical clusters).
	CrossGroupLatency float64
	// CrossGroupBandwidth scales Inter.Bandwidth for messages between
	// placement groups (1 for physical clusters; slightly below 1 for EC2).
	CrossGroupBandwidth float64
}

// Validate reports a descriptive error if the model is not physically
// sensible.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("netmodel: model has no name")
	}
	if m.Inter.Latency < 0 || m.Intra.Latency < 0 {
		return fmt.Errorf("netmodel %s: negative latency", m.Name)
	}
	if m.Inter.Bandwidth <= 0 || m.Intra.Bandwidth <= 0 {
		return fmt.Errorf("netmodel %s: non-positive bandwidth", m.Name)
	}
	if m.Oversub < 0 {
		return fmt.Errorf("netmodel %s: negative oversubscription", m.Name)
	}
	if m.OversubNodes < 0 {
		return fmt.Errorf("netmodel %s: negative oversubscription scale", m.Name)
	}
	if m.CrossGroupLatency < 0 {
		return fmt.Errorf("netmodel %s: negative cross-group latency", m.Name)
	}
	if m.CrossGroupBandwidth < 0 || m.CrossGroupBandwidth > 1 {
		if m.CrossGroupBandwidth != 0 {
			return fmt.Errorf("netmodel %s: cross-group bandwidth factor %v out of (0,1]",
				m.Name, m.CrossGroupBandwidth)
		}
	}
	return nil
}

// Reference interconnects. Latencies and bandwidths are calibrated against
// the era of the paper (2012): TCP over campus GigE, Xen-virtualised 10GbE
// in EC2 cluster-compute placement groups, and RDMA InfiniBand 4X DDR
// (20 Gb/s signalling, ~16 Gb/s data).
var (
	// GigE models the 1-Gigabit Ethernet of puma and ellipse: high TCP
	// latency and a heavily oversubscribed campus switching tree.
	GigE = &Model{
		Name:                "1GbE",
		Inter:               Link{Latency: 55e-6, Bandwidth: 112e6},
		Intra:               Link{Latency: 1.2e-6, Bandwidth: 2.2e9},
		Oversub:             2.6,
		OversubNodes:        64,
		CrossGroupBandwidth: 1,
	}

	// TenGigE models EC2 cc2.8xlarge 10GbE inside a placement group. The
	// virtualisation stack inflates latency; bandwidth is good and the
	// cluster-compute fabric is only mildly oversubscribed.
	TenGigE = &Model{
		Name:                "10GbE",
		Inter:               Link{Latency: 95e-6, Bandwidth: 1.05e9},
		Intra:               Link{Latency: 1.0e-6, Bandwidth: 3.0e9},
		Oversub:             1.15,
		OversubNodes:        64,
		CrossGroupLatency:   8e-6,
		CrossGroupBandwidth: 0.97,
	}

	// IBDDR4X models lagrange's InfiniBand 4X DDR: RDMA latency in the
	// microseconds and a fat-tree with near-full bisection bandwidth.
	IBDDR4X = &Model{
		Name:                "IB 4X DDR",
		Inter:               Link{Latency: 4.5e-6, Bandwidth: 1.85e9},
		Intra:               Link{Latency: 0.9e-6, Bandwidth: 3.2e9},
		Oversub:             0.12,
		OversubNodes:        128,
		CrossGroupBandwidth: 1,
	}
)

// Fabric binds a Model to the topology of one job: how many nodes it spans
// and how job ranks share each node's NIC. A Fabric is immutable and safe
// for concurrent use.
type Fabric struct {
	model *Model
	// interBW is the oversubscription-adjusted NIC bandwidth.
	interBW float64
	// scale multiplies every transfer time. The platform catalog uses it to
	// express communication in the same workload-adjusted seconds as the
	// calibrated compute rates: the paper's P2/P2-P1 discretisation moves
	// several times the halo bytes and runs several times the Krylov
	// iterations of this reproduction's Q1 proxy per time step, so both
	// compute and communication are scaled by comparable factors (DESIGN.md
	// §5).
	scale float64
}

// NewFabric returns a fabric for a job spanning nodes nodes.
func NewFabric(m *Model, nodes int) (*Fabric, error) {
	return NewFabricScaled(m, nodes, 1)
}

// NewFabricScaled returns a fabric whose transfer times are multiplied by
// scale (the platform's workload-equivalence factor).
func NewFabricScaled(m *Model, nodes int, scale float64) (*Fabric, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("netmodel: job spans %d nodes", nodes)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("netmodel: non-positive time scale %v", scale)
	}
	bw := m.Inter.Bandwidth
	if m.OversubNodes > 0 && nodes > 1 {
		bw /= 1 + m.Oversub*float64(nodes-1)/float64(m.OversubNodes)
	}
	return &Fabric{model: m, interBW: bw, scale: scale}, nil
}

// P2P returns the virtual seconds for one rank to transfer bytes to a peer.
//
// sameNode selects the shared-memory path. sameGroup is false only for EC2
// transfers that cross placement groups. nicShare is the number of job ranks
// concurrently sharing the sender's NIC (>= 1); it divides the effective
// bandwidth on the inter-node path.
func (f *Fabric) P2P(bytes int, sameNode, sameGroup bool, nicShare int) float64 {
	if bytes < 0 {
		panic("netmodel: negative message size")
	}
	if nicShare < 1 {
		panic("netmodel: nicShare < 1")
	}
	if sameNode {
		return f.scale * f.model.Intra.Time(bytes)
	}
	lat := f.model.Inter.Latency
	bw := f.interBW / float64(nicShare)
	if !sameGroup {
		lat += f.model.CrossGroupLatency
		if cg := f.model.CrossGroupBandwidth; cg > 0 {
			bw *= cg
		}
	}
	return f.scale * (lat + float64(bytes)/bw)
}
