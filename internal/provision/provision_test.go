package provision

import (
	"strings"
	"testing"
)

func TestDefaultRegistryValid(t *testing.T) {
	if err := DefaultRegistry().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryValidateCatchesDangling(t *testing.T) {
	r := Registry{"a": {Name: "a", Deps: []string{"ghost"}}}
	if err := r.Validate(); err == nil {
		t.Fatal("dangling dependency accepted")
	}
}

func TestRegistryValidateCatchesCycles(t *testing.T) {
	r := Registry{
		"a": {Name: "a", Deps: []string{"b"}},
		"b": {Name: "b", Deps: []string{"a"}},
	}
	if err := r.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestResolveTopologicalOrder(t *testing.T) {
	r := DefaultRegistry()
	st, err := PlatformState("ec2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Resolve(r, st, AppTargets)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range plan.Steps {
		pos[s.Pkg] = i
	}
	for _, s := range plan.Steps {
		for _, d := range r[s.Pkg].Deps {
			dp, ok := pos[d]
			if !ok {
				t.Fatalf("%s installed without dependency %s", s.Pkg, d)
			}
			if dp >= pos[s.Pkg] {
				t.Fatalf("%s installed before its dependency %s", s.Pkg, d)
			}
		}
	}
}

func TestResolveDeterministic(t *testing.T) {
	r := DefaultRegistry()
	st, _ := PlatformState("ellipse")
	p1, err := Resolve(r, st, AppTargets)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Resolve(r, st, AppTargets)
	if len(p1.Steps) != len(p2.Steps) {
		t.Fatal("plans differ in length")
	}
	for i := range p1.Steps {
		if p1.Steps[i] != p2.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, p1.Steps[i], p2.Steps[i])
		}
	}
}

// §VI narratives: puma needs essentially nothing; ellipse and lagrange take
// about 8 man-hours; EC2 takes on the order of a day including the
// cloud-specific tasks.
func TestEffortMatchesPaper(t *testing.T) {
	r := DefaultRegistry()
	hours := map[string]float64{}
	for _, name := range PaperPlatforms {
		st, err := PlatformState(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Resolve(r, st, AppTargets)
		if err != nil {
			t.Fatal(err)
		}
		hours[name] = plan.TotalHours
	}
	if hours["puma"] > 1 {
		t.Errorf("puma effort %v h; home platform should be nearly free", hours["puma"])
	}
	for _, n := range []string{"ellipse", "lagrange"} {
		if hours[n] < 6 || hours[n] > 10 {
			t.Errorf("%s effort %v h, paper reports about 8", n, hours[n])
		}
	}
	if hours["ec2"] < 9 || hours["ec2"] > 14 {
		t.Errorf("ec2 effort %v h, paper reports about a day", hours["ec2"])
	}
	// Ordering: puma < {ellipse, lagrange} < ec2.
	if !(hours["puma"] < hours["ellipse"] && hours["ellipse"] < hours["ec2"] &&
		hours["puma"] < hours["lagrange"] && hours["lagrange"] < hours["ec2"]) {
		t.Errorf("effort ordering violated: %v", hours)
	}
}

// Method selection policy (§VI): reuse > repository > source.
func TestMethodSelection(t *testing.T) {
	r := DefaultRegistry()

	// puma: everything preinstalled except the app itself.
	st, _ := PlatformState("puma")
	plan, _ := Resolve(r, st, AppTargets)
	for _, s := range plan.Steps {
		if s.Pkg == "app" {
			if s.Method != Source {
				t.Errorf("app should be built, got %s", s.Method)
			}
		} else if s.Method != Preinstalled {
			t.Errorf("puma %s via %s, want preinstalled", s.Pkg, s.Method)
		}
	}

	// ec2: toolchain via yum (root access), science stack from source,
	// cmake from source because repositories only carry 2.6.
	st, _ = PlatformState("ec2")
	plan, _ = Resolve(r, st, AppTargets)
	methods := map[string]Method{}
	for _, s := range plan.Steps {
		methods[s.Pkg] = s.Method
	}
	for _, pkg := range []string{"gcc", "gfortran", "openmpi", "autotools"} {
		if methods[pkg] != Yum {
			t.Errorf("ec2 %s via %s, want yum", pkg, methods[pkg])
		}
	}
	for _, pkg := range []string{"cmake", "boost", "hdf5", "parmetis", "suitesparse", "trilinos", "lifev"} {
		if methods[pkg] != Source {
			t.Errorf("ec2 %s via %s, want source", pkg, methods[pkg])
		}
	}

	// ellipse: no root — everything missing is source-built.
	st, _ = PlatformState("ellipse")
	plan, _ = Resolve(r, st, AppTargets)
	for _, s := range plan.Steps {
		if s.Method == Yum {
			t.Errorf("ellipse cannot yum-install %s (user space only)", s.Pkg)
		}
	}

	// lagrange: MPI and BLAS preinstalled (vendor), trilinos from source.
	st, _ = PlatformState("lagrange")
	plan, _ = Resolve(r, st, AppTargets)
	methods = map[string]Method{}
	for _, s := range plan.Steps {
		methods[s.Pkg] = s.Method
	}
	if methods["openmpi"] != Preinstalled || methods["blas-lapack"] != Preinstalled {
		t.Errorf("lagrange MPI/BLAS should be preinstalled: %v %v",
			methods["openmpi"], methods["blas-lapack"])
	}
	if methods["trilinos"] != Source {
		t.Errorf("lagrange trilinos via %v", methods["trilinos"])
	}
}

func TestResolveErrors(t *testing.T) {
	r := DefaultRegistry()
	if _, err := Resolve(r, nil, AppTargets); err == nil {
		t.Error("nil state accepted")
	}
	st, _ := PlatformState("puma")
	if _, err := Resolve(r, st, []string{"ghost"}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := PlatformState("bogus"); err == nil {
		t.Error("unknown platform state accepted")
	}
}

func TestPlanCoversFullStack(t *testing.T) {
	// Every package of §IV-D must appear in the EC2 plan (nothing was
	// preinstalled there).
	r := DefaultRegistry()
	st, _ := PlatformState("ec2")
	plan, _ := Resolve(r, st, AppTargets)
	want := []string{"gcc", "make", "cmake", "openmpi", "blas-lapack", "boost",
		"hdf5", "parmetis", "suitesparse", "trilinos", "lifev", "app"}
	seen := map[string]bool{}
	for _, s := range plan.Steps {
		seen[s.Pkg] = true
	}
	for _, p := range want {
		if !seen[p] {
			t.Errorf("EC2 plan missing %s", p)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}

// §VI-D: once the preconditioned image exists, re-provisioning EC2 costs a
// launch, not a day.
func TestImageReuse(t *testing.T) {
	r := DefaultRegistry()
	st, _ := PlatformState("ec2")
	fresh, err := Resolve(r, st, AppTargets)
	if err != nil {
		t.Fatal(err)
	}
	imaged, err := Resolve(r, st.WithImage(), AppTargets)
	if err != nil {
		t.Fatal(err)
	}
	if imaged.TotalHours >= 1 {
		t.Fatalf("image launch costs %v h, want well under 1", imaged.TotalHours)
	}
	if fresh.TotalHours < 10*imaged.TotalHours {
		t.Fatalf("fresh port (%v h) should dwarf image reuse (%v h)",
			fresh.TotalHours, imaged.TotalHours)
	}
	for _, s := range imaged.Steps {
		if s.Method != Preinstalled {
			t.Fatalf("imaged plan still installs %s via %s", s.Pkg, s.Method)
		}
	}
	// The original state must be unmodified.
	if st.HasImage {
		t.Fatal("WithImage mutated the receiver")
	}
}
