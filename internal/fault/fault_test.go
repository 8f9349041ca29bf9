package fault

import (
	"reflect"
	"sort"
	"testing"
)

func TestPlanDeterministicForEqualSeeds(t *testing.T) {
	spec := Spec{Seed: 42, Nodes: 8, Horizon: 100, Crashes: 2, Preemptions: 3, Degradations: 1}
	p1, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("plans differ for equal seeds:\n%v\n%v", p1, p2)
	}
	spec.Seed = 43
	p3, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Events, p3.Events) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanShape(t *testing.T) {
	spec := Spec{Seed: 7, Nodes: 4, Horizon: 50, Crashes: 3, Preemptions: 2, Degradations: 2,
		SpotNodes: []int{1, 3}}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Events); got != 7 {
		t.Fatalf("%d events, want 7", got)
	}
	if !sort.SliceIsSorted(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At }) {
		t.Fatal("events not sorted by At")
	}
	for _, e := range p.Events {
		if e.At < 0.05*spec.Horizon || e.At > 0.95*spec.Horizon {
			t.Errorf("event at %v outside horizon window", e.At)
		}
		switch e.Kind {
		case KindPreempt:
			if e.Node != 1 && e.Node != 3 {
				t.Errorf("preemption on non-spot node %d", e.Node)
			}
			if e.NoticeAt > e.At || e.At-e.NoticeAt > NoticeLeadS {
				t.Errorf("notice at %v for failure at %v", e.NoticeAt, e.At)
			}
		case KindDegrade:
			if !(e.Until > e.At) || e.Factor <= 1 {
				t.Errorf("bad degrade window %+v", e)
			}
		}
	}
	if got := len(p.Failures()) + len(p.Degradations()); got != len(p.Events) {
		t.Fatalf("failures+degradations = %d, want %d", got, len(p.Events))
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := New(Spec{Nodes: 0, Horizon: 1}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(Spec{Nodes: 2, Horizon: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := New(Spec{Nodes: 2, Horizon: 1, SpotNodes: []int{5}}); err == nil {
		t.Fatal("out-of-range spot node accepted")
	}
	if _, err := New(Spec{Nodes: 2, Horizon: 1, DegradeFactor: 0.5}); err == nil {
		t.Fatal("sub-unity degrade factor accepted")
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	b := NewBackoff(10, 80, 1)
	prevMax := 0.0
	for i := 0; i < 8; i++ {
		d := b.Next()
		ideal := 10 * float64(int(1)<<i)
		if ideal > 80 {
			ideal = 80
		}
		if d < 0.5*ideal || d >= 1.5*ideal {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, 0.5*ideal, 1.5*ideal)
		}
		if ideal == 80 && prevMax == 80 {
			// capped region: stays bounded
			if d >= 1.5*80 {
				t.Fatalf("capped delay %v exceeds jittered cap", d)
			}
		}
		prevMax = ideal
	}
	// Determinism across instances.
	b1, b2 := NewBackoff(10, 80, 9), NewBackoff(10, 80, 9)
	for i := 0; i < 5; i++ {
		if d1, d2 := b1.Next(), b2.Next(); d1 != d2 {
			t.Fatalf("backoff not deterministic: %v vs %v", d1, d2)
		}
	}
}

func TestRemapTranslatesAndDrops(t *testing.T) {
	events := []Event{
		{Kind: KindCrash, Node: 0, At: 1},
		{Kind: KindCrash, Node: 1, At: 2}, // dead node: dropped
		{Kind: KindDegrade, Node: 2, At: 3, Until: 4, Factor: 2},
		{Kind: KindCrash, Node: 9, At: 5}, // out of range: dropped
	}
	nodeMap := []int{0, -1, 1, 2}
	got := Remap(events, nodeMap)
	want := []Event{
		{Kind: KindCrash, Node: 0, At: 1},
		{Kind: KindDegrade, Node: 1, At: 3, Until: 4, Factor: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Remap = %+v, want %+v", got, want)
	}
	if events[2].Node != 2 {
		t.Fatal("Remap mutated its input")
	}
}
