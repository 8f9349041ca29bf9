package bench

import (
	"strings"
	"testing"
)

func TestRunStrongSpeedsUp(t *testing.T) {
	o := Options{Steps: 2, SkipSteps: 1, MaxRanks: 27, Seed: 3}
	s, err := RunStrong("rd", "lagrange", 12, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("got %d points", len(s.Points))
	}
	t1 := s.Points[0].Report.Iter.MaxTotal
	t27 := s.Points[2].Report.Iter.MaxTotal
	if t27 >= t1 {
		t.Fatalf("strong scaling on InfiniBand should speed up: %v -> %v", t1, t27)
	}
}

func TestRunStrongStopsWhenUnsplittable(t *testing.T) {
	o := Options{Steps: 1, MaxRanks: 1000, Seed: 3}
	// A 4³ mesh cannot be split beyond 4 parts per dimension (64 ranks).
	s, err := RunStrong("rd", "ec2", 4, o)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Points[len(s.Points)-1]
	if last.Ranks > 64 {
		t.Fatalf("series continued to %d ranks on a 4³ mesh", last.Ranks)
	}
}

func TestRunStrongValidation(t *testing.T) {
	o := Options{Steps: 1, MaxRanks: 8, Seed: 3}
	if _, err := RunStrong("bogus", "ec2", 8, o); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := RunStrong("rd", "bogus", 8, o); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := RunStrong("rd", "ec2", 0, o); err == nil {
		t.Error("empty global mesh accepted")
	}
}

func TestFormatStrong(t *testing.T) {
	o := Options{Steps: 2, SkipSteps: 1, MaxRanks: 8, Seed: 3}
	s, err := RunStrong("ns", "ec2", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatStrong([]*Series{s})
	for _, want := range []string{"Strong scaling", "NS", "speedup", "efficiency", "ec2"} {
		if !strings.Contains(out, want) {
			t.Errorf("strong table missing %q:\n%s", want, out)
		}
	}
}

func TestPrecondAblation(t *testing.T) {
	o := Options{PerRankN: 4, Steps: 2, SkipSteps: 1, Seed: 3}
	out, err := FormatPrecondAblation("ec2", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"none", "jacobi", "sgs", "ilu0", "iters"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q:\n%s", want, out)
		}
	}
}

func TestPackingAblation(t *testing.T) {
	o := Options{PerRankN: 3, Steps: 2, SkipSteps: 1, Seed: 3}
	out, err := FormatPackingAblation("ec2", 27, o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ranks/node") || !strings.Contains(out, "$/iter") {
		t.Errorf("packing ablation malformed:\n%s", out)
	}
	// Densest packing must appear (16 ranks/node) and sparsest (1).
	if !strings.Contains(out, "\n          16") || !strings.Contains(out, "\n           1") {
		t.Errorf("packing rows missing:\n%s", out)
	}
}

func TestInterconnectAblation(t *testing.T) {
	o := Options{PerRankN: 3, Steps: 2, SkipSteps: 1, Seed: 3}
	out, err := FormatInterconnectAblation("puma", 27, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1GbE", "10GbE", "IB 4X DDR"} {
		if !strings.Contains(out, want) {
			t.Errorf("interconnect ablation missing %q:\n%s", want, out)
		}
	}
}

func TestPartitionAblation(t *testing.T) {
	out, err := FormatPartitionAblation(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"block", "rcb", "greedy", "edge cut"} {
		if !strings.Contains(out, want) {
			t.Errorf("partition ablation missing %q:\n%s", want, out)
		}
	}
}
