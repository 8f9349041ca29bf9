package netmodel

import (
	"testing"
	"testing/quick"
)

func TestReferenceModelsValidate(t *testing.T) {
	for _, m := range []*Model{GigE, TenGigE, IBDDR4X} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []Model{
		{},
		{Name: "neg-lat", Inter: Link{Latency: -1, Bandwidth: 1}, Intra: Link{Bandwidth: 1}},
		{Name: "zero-bw", Inter: Link{Bandwidth: 0}, Intra: Link{Bandwidth: 1}},
		{Name: "neg-ovs", Inter: Link{Bandwidth: 1}, Intra: Link{Bandwidth: 1}, Oversub: -1},
		{Name: "bad-cg", Inter: Link{Bandwidth: 1}, Intra: Link{Bandwidth: 1}, CrossGroupBandwidth: 1.5},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q validated but should not", m.Name)
		}
	}
}

func TestLinkTime(t *testing.T) {
	l := Link{Latency: 1e-6, Bandwidth: 1e9}
	if got, want := l.Time(1e6), 1e-6+1e-3; got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestFabricIntraCheaperThanInter(t *testing.T) {
	for _, m := range []*Model{GigE, TenGigE, IBDDR4X} {
		f, err := NewFabric(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, bytes := range []int{0, 100, 10000, 1 << 20} {
			intra := f.P2P(bytes, true, true, 1)
			inter := f.P2P(bytes, false, true, 1)
			if intra >= inter {
				t.Errorf("%s: intra %v >= inter %v at %d bytes", m.Name, intra, inter, bytes)
			}
		}
	}
}

func TestOversubscriptionDegradesWithNodes(t *testing.T) {
	f2, _ := NewFabric(GigE, 2)
	f64, _ := NewFabric(GigE, 64)
	if f64.interBW >= f2.interBW {
		t.Fatalf("bandwidth should fall with node count: %v vs %v",
			f64.interBW, f2.interBW)
	}
	// IB keeps much more of its bandwidth across the same growth.
	ib2, _ := NewFabric(IBDDR4X, 2)
	ib64, _ := NewFabric(IBDDR4X, 64)
	ibRetention := ib64.interBW / ib2.interBW
	geRetention := f64.interBW / f2.interBW
	if ibRetention <= geRetention {
		t.Fatalf("IB retention %v should beat GigE retention %v", ibRetention, geRetention)
	}
}

func TestNICShareDividesBandwidth(t *testing.T) {
	f, _ := NewFabric(TenGigE, 8)
	const bytes = 1 << 20
	t1 := f.P2P(bytes, false, true, 1)
	t16 := f.P2P(bytes, false, true, 16)
	// Subtract latency to compare pure transfer time.
	lat := TenGigE.Inter.Latency
	if ratio := (t16 - lat) / (t1 - lat); ratio < 15.9 || ratio > 16.1 {
		t.Fatalf("16-way NIC share should scale transfer time 16x, got %v", ratio)
	}
}

func TestCrossGroupPenaltySmall(t *testing.T) {
	// Table II found no measurable placement-group benefit; the model's
	// cross-group penalty must exist but stay small (<15% on a typical halo
	// message).
	f, _ := NewFabric(TenGigE, 63)
	const bytes = 32 << 10
	in := f.P2P(bytes, false, true, 16)
	out := f.P2P(bytes, false, false, 16)
	if out <= in {
		t.Fatalf("cross-group should not be faster: %v vs %v", out, in)
	}
	if out/in > 1.15 {
		t.Fatalf("cross-group penalty too large: %v", out/in)
	}
}

func TestP2PMonotoneInBytesProperty(t *testing.T) {
	f, _ := NewFabric(GigE, 16)
	prop := func(aRaw, bRaw uint32, sameNode, sameGroup bool, shareRaw uint8) bool {
		a, b := int(aRaw%1e6), int(bRaw%1e6)
		if a > b {
			a, b = b, a
		}
		share := int(shareRaw%16) + 1
		return f.P2P(a, sameNode, sameGroup, share) <= f.P2P(b, sameNode, sameGroup, share)+1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestP2PPositiveProperty(t *testing.T) {
	f, _ := NewFabric(IBDDR4X, 29)
	prop := func(bytesRaw uint32, sameNode, sameGroup bool, shareRaw uint8) bool {
		share := int(shareRaw%32) + 1
		return f.P2P(int(bytesRaw%1e7), sameNode, sameGroup, share) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewFabricRejectsBadArgs(t *testing.T) {
	if _, err := NewFabric(GigE, 0); err == nil {
		t.Error("0 nodes accepted")
	}
	bad := &Model{}
	if _, err := NewFabric(bad, 1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestP2PPanicsOnBadInput(t *testing.T) {
	f, _ := NewFabric(GigE, 2)
	for name, fn := range map[string]func(){
		"negative bytes": func() { f.P2P(-1, false, true, 1) },
		"zero share":     func() { f.P2P(10, false, true, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// The interconnect ordering that drives the paper's results: for a typical
// halo message under full NIC sharing, IB must beat 10GbE which must beat
// 1GbE.
func TestInterconnectOrdering(t *testing.T) {
	const nodes = 22
	const bytes = 24 << 10
	ge, _ := NewFabric(GigE, nodes)
	te, _ := NewFabric(TenGigE, nodes)
	ib, _ := NewFabric(IBDDR4X, nodes)
	tGigE := ge.P2P(bytes, false, true, 4)   // 4 ranks share a puma NIC
	tTenGE := te.P2P(bytes, false, true, 16) // 16 ranks share an EC2 NIC
	tIB := ib.P2P(bytes, false, true, 12)    // 12 ranks share a lagrange HCA
	if !(tIB < tTenGE && tTenGE < tGigE) {
		t.Fatalf("ordering violated: IB=%v 10GbE=%v 1GbE=%v", tIB, tTenGE, tGigE)
	}
}

func TestNewFabricScaled(t *testing.T) {
	base, err := NewFabric(TenGigE, 8)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewFabricScaled(TenGigE, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int{0, 1000, 1 << 20} {
		for _, sameNode := range []bool{true, false} {
			b := base.P2P(bytes, sameNode, true, 4)
			s := scaled.P2P(bytes, sameNode, true, 4)
			if ratio := s / b; ratio < 24.999 || ratio > 25.001 {
				t.Fatalf("scale ratio %v at %d bytes sameNode=%v", ratio, bytes, sameNode)
			}
		}
	}
	if _, err := NewFabricScaled(TenGigE, 8, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := NewFabricScaled(TenGigE, 8, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}
