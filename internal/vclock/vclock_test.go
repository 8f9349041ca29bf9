package vclock

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func testRater() LinearRater {
	return LinearRater{FlopsPerSec: 1e9, BytesPerSec: 4e9}
}

func TestLinearRater(t *testing.T) {
	r := LinearRater{FlopsPerSec: 2e9, BytesPerSec: 8e9}
	got := r.ComputeSeconds(2e9, 8e9)
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("ComputeSeconds = %v, want 2", got)
	}
	if r.ComputeSeconds(0, 0) != 0 {
		t.Fatal("zero work should cost zero time")
	}
}

func TestChargeComputeAccumulates(t *testing.T) {
	c := New(testRater())
	c.SetPhase(PhaseAssembly)
	c.ChargeCompute(1e9, 0) // 1 second
	c.ChargeCompute(0, 4e9) // 1 second
	if got := c.Since(Snapshot{}).Phase(PhaseAssembly); math.Abs(got-2) > 1e-12 {
		t.Fatalf("assembly total = %v, want 2", got)
	}
	if got := c.Now(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Now = %v, want 2", got)
	}
}

func TestPhaseAttribution(t *testing.T) {
	c := New(testRater())
	c.SetPhase(PhaseAssembly)
	c.ChargeCompute(1e9, 0)
	prev := c.SetPhase(PhaseSolve)
	if prev != PhaseAssembly {
		t.Fatalf("SetPhase returned %v", prev)
	}
	c.ChargeComm(0.5, 100)
	if got := c.Since(Snapshot{}).Phase(PhaseAssembly); math.Abs(got-1) > 1e-12 {
		t.Errorf("assembly = %v", got)
	}
	if got := c.comm[PhaseSolve]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("solve comm = %v", got)
	}
	if got := c.compute[PhaseSolve]; got != 0 {
		t.Errorf("solve compute = %v", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New(testRater())
	c.SetPhase(PhaseSolve)
	c.ChargeCompute(1e9, 0) // now = 1
	c.AdvanceTo(3)          // idle 2s charged as comm
	if got := c.Now(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Now = %v, want 3", got)
	}
	if got := c.comm[PhaseSolve]; math.Abs(got-2) > 1e-12 {
		t.Fatalf("idle comm = %v, want 2", got)
	}
	// Advancing backwards is a no-op.
	c.AdvanceTo(1)
	if got := c.Now(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("AdvanceTo went backwards: %v", got)
	}
}

// NewAt carries absolute time without booking it to any phase: a rank
// resuming in a shrunk world keeps its clock but starts clean accounts.
func TestNewAtStartsWithEmptyPhases(t *testing.T) {
	c := NewAt(testRater(), 5)
	if c.Now() != 5 {
		t.Fatalf("Now = %v, want 5", c.Now())
	}
	if got := c.Since(Snapshot{}).Total(); got != 0 {
		t.Fatalf("phase total at start = %v, want 0", got)
	}
	c.ChargeCompute(1e9, 0)
	c.AdvanceTo(7)
	if c.Now() != 7 {
		t.Fatalf("Now = %v, want 7", c.Now())
	}
	if got := c.Since(Snapshot{}).Total(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("phase total = %v, want 2", got)
	}
	if got := NewAt(testRater(), -1).Now(); got != 0 {
		t.Fatalf("negative start gave Now = %v, want 0", got)
	}
}

// The phase listener fires once per actual change, with the time of the
// switch; setting the current phase again is silent.
func TestPhaseListenerSeesOnlyChanges(t *testing.T) {
	c := New(testRater())
	type switchAt struct {
		t        float64
		from, to Phase
	}
	var got []switchAt
	c.SetPhaseListener(func(t float64, from, to Phase) { got = append(got, switchAt{t, from, to}) })
	c.SetPhase(PhaseAssembly)
	c.ChargeCompute(1e9, 0)
	c.SetPhase(PhaseAssembly)
	c.SetPhase(PhaseSolve)
	c.SetPhaseListener(nil)
	c.SetPhase(PhaseAssembly)
	want := []switchAt{{0, PhaseOther, PhaseAssembly}, {1, PhaseAssembly, PhaseSolve}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("listener saw %v, want %v", got, want)
	}
}

func TestSnapshotSince(t *testing.T) {
	c := New(testRater())
	c.SetPhase(PhaseAssembly)
	c.ChargeCompute(2e9, 0)
	snap := c.Snapshot()
	c.ChargeCompute(1e9, 0)
	c.SetPhase(PhaseSolve)
	c.ChargeComm(0.25, 8)
	d := c.Since(snap)
	if got := d.Phase(PhaseAssembly); math.Abs(got-1) > 1e-12 {
		t.Errorf("delta assembly = %v, want 1", got)
	}
	if got := d.Phase(PhaseSolve); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("delta solve = %v, want 0.25", got)
	}
	if got := d.Total(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("delta total = %v, want 1.25", got)
	}
}

func TestCounters(t *testing.T) {
	c := New(testRater())
	c.ChargeCompute(100, 200)
	c.ChargeComm(0.1, 50)
	c.ChargeComm(0.1, 70)
	flops, bytes, msgs, msgBytes := c.Counters()
	if flops != 100 || bytes != 200 {
		t.Errorf("compute counters %v %v", flops, bytes)
	}
	if msgs != 2 || msgBytes != 120 {
		t.Errorf("message counters %v %v", msgs, msgBytes)
	}
}

func TestNegativeChargesPanic(t *testing.T) {
	c := New(testRater())
	for name, f := range map[string]func(){
		"compute": func() { c.ChargeCompute(-1, 0) },
		"comm":    func() { c.ChargeComm(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative charge did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNilRaterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseOther:    "other",
		PhaseAssembly: "assembly",
		PhasePrecond:  "precond",
		PhaseSolve:    "solve",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// Property: Now always equals the sum of the phase totals, regardless of
// charge order.
func TestNowEqualsPhaseSumProperty(t *testing.T) {
	f := func(charges []uint16) bool {
		c := New(testRater())
		for i, ch := range charges {
			c.SetPhase(Phases[i%len(Phases)])
			if i%2 == 0 {
				c.ChargeCompute(float64(ch)*1e6, float64(ch)*1e6)
			} else {
				c.ChargeComm(float64(ch)*1e-6, int(ch))
			}
		}
		var sum float64
		for _, p := range Phases {
			sum += c.Since(Snapshot{}).Phase(p)
		}
		return math.Abs(sum-c.Now()) < 1e-9*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
