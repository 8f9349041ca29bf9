// Package provision models the deployment-effort dimension of the paper
// (§VI, Table I): the LifeV software stack's dependency graph, what each of
// the four platforms provided before porting, and a resolver that plans the
// installation steps — preferring what is already compatible on the target,
// then package repositories (yum, root access required), then source builds
// — exactly the policy the authors followed ("we utilized all compatible
// software that was already available on the target … and resorted to
// installation, preferably from package repositories, only if the
// dependency was missing or incompatible").
//
// Effort-hour constants are calibrated to the paper's reports: ≈8 man-hours
// of preconditioning on ellipse and lagrange, about a day on EC2 including
// the cloud-specific tasks (system update, ssh mutual authentication,
// security-group configuration, boot-partition resize, image creation).
package provision

import (
	"fmt"
	"sort"
)

// Method is how a dependency gets provided on a target.
type Method string

const (
	// Preinstalled: already present in a compatible version.
	Preinstalled Method = "preinstalled"
	// Yum: installed from the system package repository (root required).
	Yum Method = "yum"
	// Source: downloaded and built from source in user space.
	Source Method = "source"
)

// Package is one node of the dependency graph (§IV-D).
type Package struct {
	// Name is the canonical lower-case package name.
	Name string
	// Version is the version the study installed.
	Version string
	// Deps lists package names that must be provided first.
	Deps []string
	// SourceHours is the effort of a source build; YumHours of a repository
	// install (0 means not available via repository).
	SourceHours float64
	YumHours    float64
	// Note explains quirks (e.g. HDF5's 1.6 compatibility interface).
	Note string
}

// Registry is the package universe keyed by name.
type Registry map[string]*Package

// DefaultRegistry returns the LifeV dependency stack of §IV-D with the
// versions of §VI.
func DefaultRegistry() Registry {
	pkgs := []*Package{
		{Name: "gcc", Version: "4.x", SourceHours: 3, YumHours: 0.2,
			Note: "C/C++ compiler, version 4 or above"},
		{Name: "gfortran", Version: "4.x", Deps: []string{"gcc"}, SourceHours: 1, YumHours: 0.2,
			Note: "optional Fortran compiler, compatible with C++"},
		{Name: "make", Version: "GNU", SourceHours: 0.5, YumHours: 0.1},
		{Name: "autotools", Version: "autoconf 2.59 / automake 1.9.6 / libtool 1.5.22",
			SourceHours: 0.5, YumHours: 0.2},
		{Name: "cmake", Version: "2.8", Deps: []string{"gcc", "make"}, SourceHours: 0.5,
			Note: "2.8 required; older repositories ship 2.6, forcing source installs"},
		{Name: "openmpi", Version: "1.4.4", Deps: []string{"gcc", "make", "autotools"},
			SourceHours: 1.0, YumHours: 0.25},
		{Name: "blas-lapack", Version: "vendor or generic",
			Deps:        []string{"gfortran", "make"},
			SourceHours: 1.25, YumHours: 0.25,
			Note: "ACML on Opterons, MKL on lagrange, GotoBLAS2 1.13 + LAPACK 3.3.1 on EC2"},
		{Name: "boost", Version: "1.47", Deps: []string{"gcc"}, SourceHours: 1.0,
			Note: "smart pointers for memory management"},
		{Name: "hdf5", Version: "1.8.7", Deps: []string{"openmpi"}, SourceHours: 0.75,
			Note: "built with the 1.6 version interface for compatibility"},
		{Name: "parmetis", Version: "3.1.1", Deps: []string{"openmpi"}, SourceHours: 0.5,
			Note: "mesh partitioning"},
		{Name: "suitesparse", Version: "3.6.1", Deps: []string{"blas-lapack", "make"},
			SourceHours: 0.5, Note: "support library extending Trilinos"},
		{Name: "trilinos", Version: "10.6.4",
			Deps:        []string{"openmpi", "blas-lapack", "hdf5", "parmetis", "suitesparse", "cmake"},
			SourceHours: 2.5, Note: "distributed linear algebra and solvers"},
		{Name: "lifev", Version: "2.0.0",
			Deps:        []string{"trilinos", "boost", "hdf5", "parmetis", "cmake"},
			SourceHours: 1.5, Note: "the FEM library itself"},
		{Name: "app", Version: "CFD simulations", Deps: []string{"lifev", "make"},
			SourceHours: 0.5, Note: "update the Makefile and build the solvers"},
	}
	r := make(Registry, len(pkgs))
	for _, p := range pkgs {
		r[p.Name] = p
	}
	return r
}

// Validate checks the registry for dangling or cyclic dependencies. It
// walks the registry in sorted order so a registry with several problems
// always reports the same one first (map iteration would pick an arbitrary
// error each run — heterolint:maporder).
func (r Registry) Validate() error {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := r[name]
		if p.Name != name {
			return fmt.Errorf("provision: key %q holds package %q", name, p.Name)
		}
		for _, d := range p.Deps {
			if _, ok := r[d]; !ok {
				return fmt.Errorf("provision: %s depends on unknown %q", name, d)
			}
		}
	}
	// Cycle check via the resolver's DFS on every node.
	for _, name := range names {
		if _, err := r.order([]string{name}); err != nil {
			return err
		}
	}
	return nil
}

// order returns a dependency-respecting order of targets' transitive
// closures.
func (r Registry) order(targets []string) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var out []string
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("provision: dependency cycle through %q", n)
		case black:
			return nil
		}
		p, ok := r[n]
		if !ok {
			return fmt.Errorf("provision: unknown package %q", n)
		}
		color[n] = gray
		deps := append([]string(nil), p.Deps...)
		sort.Strings(deps) // deterministic plans
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[n] = black
		out = append(out, n)
		return nil
	}
	for _, t := range targets {
		if err := visit(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Task is a non-package activity required on a target (cloud plumbing,
// admin interactions).
type Task struct {
	Name  string
	Hours float64
	Note  string
}

// State describes a target platform before porting (the "before" columns of
// Table I).
type State struct {
	// Platform is the platform name.
	Platform string
	// Preinstalled maps package name -> version already present and
	// compatible.
	Preinstalled map[string]string
	// HasYum is true when the user has root and a system package manager.
	HasYum bool
	// HasImage is true when a preconditioned machine image from an earlier
	// porting exists (§VI-D: "all the changes committed on the running
	// instance can be preserved by creating a private image … used to
	// launch several identical copies"). Resolution then reduces to
	// instantiating the image.
	HasImage bool
	// BLASNote records which vendor BLAS the platform uses.
	BLASNote string
	// ExtraTasks are the platform-specific activities outside package
	// installation.
	ExtraTasks []Task
}

// WithImage returns a copy of the state whose prior porting has been
// captured in a reusable image.
func (st *State) WithImage() *State {
	cp := *st
	cp.HasImage = true
	return &cp
}

// Step is one action of a provisioning plan.
type Step struct {
	Pkg     string
	Version string
	Method  Method
	Hours   float64
	Note    string
}

// Plan is the full provisioning plan for one target.
type Plan struct {
	Platform string
	Steps    []Step
	Extra    []Task
	// InstallHours is the package effort; TotalHours adds the extra tasks.
	InstallHours float64
	TotalHours   float64
}

// Resolve plans the provisioning of targets on the platform described by
// st, following the paper's policy: reuse preinstalled software, prefer
// repositories where root access allows, fall back to source builds.
func Resolve(r Registry, st *State, targets []string) (*Plan, error) {
	if st == nil {
		return nil, fmt.Errorf("provision: nil platform state")
	}
	order, err := r.order(targets)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Platform: st.Platform}
	if st.HasImage {
		// A preconditioned image turns the whole stack into one launch step.
		for _, name := range order {
			plan.Steps = append(plan.Steps, Step{
				Pkg: name, Version: r[name].Version, Method: Preinstalled,
				Note: "baked into the preconditioned image",
			})
		}
		plan.Extra = append(plan.Extra, Task{
			Name: "instantiate preconditioned image", Hours: 0.1,
			Note: "launch identical on-demand copies of the saved image",
		})
		plan.TotalHours = 0.1
		return plan, nil
	}
	for _, name := range order {
		p := r[name]
		var s Step
		switch {
		case st.Preinstalled[name] != "":
			s = Step{Pkg: name, Version: st.Preinstalled[name], Method: Preinstalled}
		case st.HasYum && p.YumHours > 0:
			s = Step{Pkg: name, Version: p.Version, Method: Yum, Hours: p.YumHours}
		default:
			s = Step{Pkg: name, Version: p.Version, Method: Source, Hours: p.SourceHours}
		}
		s.Note = p.Note
		plan.Steps = append(plan.Steps, s)
		plan.InstallHours += s.Hours
	}
	plan.Extra = append(plan.Extra, st.ExtraTasks...)
	plan.TotalHours = plan.InstallHours
	for _, t := range plan.Extra {
		plan.TotalHours += t.Hours
	}
	return plan, nil
}

// AppTargets is the top-level build goal: the CFD applications.
var AppTargets = []string{"app"}
