package platform

import (
	"testing"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/vclock"
)

func TestCatalogHasPaperPlatforms(t *testing.T) {
	for _, name := range []string{"puma", "ellipse", "lagrange", "ec2"} {
		p, err := Get(name)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestDefaultsOrder(t *testing.T) {
	d := Defaults()
	if len(d) != 4 {
		t.Fatalf("got %d default platforms", len(d))
	}
	want := []string{"puma", "ellipse", "lagrange", "ec2"}
	for i, p := range d {
		if p.Name != want[i] {
			t.Errorf("position %d: %s, want %s", i, p.Name, want[i])
		}
	}
}

// Table I invariants.
func TestTableIFacts(t *testing.T) {
	puma, _ := Get("puma")
	ellipse, _ := Get("ellipse")
	lagrange, _ := Get("lagrange")
	ec2, _ := Get("ec2")

	if puma.CoresPerNode() != 4 || puma.TotalCores() != 128 {
		t.Errorf("puma geometry: %d cores/node, %d total", puma.CoresPerNode(), puma.TotalCores())
	}
	if ellipse.CoresPerNode() != 4 || ellipse.TotalCores() != 1024 {
		t.Errorf("ellipse geometry: %d cores/node, %d total", ellipse.CoresPerNode(), ellipse.TotalCores())
	}
	if lagrange.CoresPerNode() != 12 {
		t.Errorf("lagrange cores/node: %d", lagrange.CoresPerNode())
	}
	if ec2.CoresPerNode() != 16 {
		t.Errorf("ec2 cores/node: %d", ec2.CoresPerNode())
	}
	// RAM/core: 1, 1, 2 (paper rounds to 1.3 for 24/18... our 24/12), 3.78.
	if puma.RAMPerCoreGB() != 2 {
		t.Errorf("puma RAM/core %v", puma.RAMPerCoreGB())
	}
	// Networks.
	if puma.Net != netmodel.GigE || ellipse.Net != netmodel.GigE {
		t.Error("puma/ellipse must be 1GbE")
	}
	if lagrange.Net != netmodel.IBDDR4X {
		t.Error("lagrange must be IB 4X DDR")
	}
	if ec2.Net != netmodel.TenGigE {
		t.Error("ec2 must be 10GbE")
	}
	// Failure limits from §VII-A.
	if ellipse.MaxLaunchRanks != 512 {
		t.Errorf("ellipse launch limit %d", ellipse.MaxLaunchRanks)
	}
	if lagrange.MaxVolumeRanks != 343 {
		t.Errorf("lagrange volume cap %d", lagrange.MaxVolumeRanks)
	}
	// Prices from §VII-D.
	if puma.CostPerCoreHour != 0.023 || ellipse.CostPerCoreHour != 0.05 ||
		lagrange.CostPerCoreHour != 0.1919 {
		t.Error("per-core prices drifted from the paper")
	}
	if ec2.CostPerNodeHour != 2.40 || ec2.SpotPerNodeHour != 0.54 {
		t.Error("ec2 prices drifted from Table II")
	}
	// Only ec2 has root access and placement groups.
	if !ec2.RootAccess || puma.RootAccess || ellipse.RootAccess || lagrange.RootAccess {
		t.Error("access rows wrong")
	}
	if !ec2.PlacementGroups {
		t.Error("ec2 must support placement groups")
	}
}

// Hardware ordering: per-core compute rates must follow 2012 hardware
// (Opteron 2214 < Opteron 2218 < Xeon X5660 < Xeon E5-2670).
func TestComputeRateOrdering(t *testing.T) {
	names := []string{"puma", "ellipse", "lagrange", "ec2"}
	var prev float64
	for _, n := range names {
		p, _ := Get(n)
		if p.Rater.FlopsPerSec <= prev {
			t.Fatalf("%s rate %v not greater than predecessor %v", n, p.Rater.FlopsPerSec, prev)
		}
		prev = p.Rater.FlopsPerSec
	}
}

func TestNodesFor(t *testing.T) {
	ec2, _ := Get("ec2")
	cases := map[int]int{1: 1, 16: 1, 17: 2, 1000: 63, 1008: 63}
	for ranks, want := range cases {
		if got := ec2.NodesFor(ranks); got != want {
			t.Errorf("NodesFor(%d) = %d, want %d", ranks, got, want)
		}
	}
	puma, _ := Get("puma")
	if got := puma.NodesFor(125); got != 32 {
		t.Errorf("puma NodesFor(125) = %d", got)
	}
}

func TestValidateCatches(t *testing.T) {
	bad := []*Platform{
		{},
		{Name: "x", SocketsPerNode: 1, CoresPerSocket: 1, MaxNodes: 1},                  // no RAM
		{Name: "x", SocketsPerNode: 1, CoresPerSocket: 1, MaxNodes: 1, RAMPerNodeGB: 1}, // no net
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(&Platform{
		Name: "puma", SocketsPerNode: 1, CoresPerSocket: 1, MaxNodes: 1,
		RAMPerNodeGB: 1, Net: netmodel.GigE,
		Rater: vclock.LinearRater{FlopsPerSec: 1},
	})
}

func TestNamesSorted(t *testing.T) {
	ns := Names()
	for i := 1; i < len(ns); i++ {
		if ns[i] <= ns[i-1] {
			t.Fatalf("names not sorted: %v", ns)
		}
	}
}
