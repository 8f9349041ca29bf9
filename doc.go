// Package heterohpc reproduces "Experiences with Target-Platform
// Heterogeneity in Clouds, Grids, and On-Premises Resources" (Slawinski,
// Passerini, Villa, Veneziani, Sunderam; Emory TR-2012-004 / IPPS
// 2012) as a runnable Go system.
//
// The paper benchmarks two production FEM CFD applications — a 3-D
// reaction–diffusion equation and the incompressible Navier–Stokes
// equations on the Ethier–Steinman benchmark — across four heterogeneous
// platforms: an in-house cluster (puma), a fee-for-use university cluster
// (ellipse), a TOP500 grid machine (lagrange) and Amazon EC2 cc2.8xlarge
// assemblies. This library rebuilds the entire stack in Go: structured
// meshes and partitioners (the NetGen/ParMETIS role), distributed sparse
// linear algebra and Krylov solvers with preconditioners (the
// Trilinos/Ifpack role), the two applications themselves (the LifeV role),
// and an in-process message-passing runtime whose virtual clocks are driven
// by calibrated models of the four platforms' CPUs, interconnects,
// schedulers, prices and the EC2 spot market — so that every table and
// figure of the paper's evaluation can be regenerated (see EXPERIMENTS.md).
//
// The numerics are real: both applications verify their solutions against
// exact manufactured solutions on every run. Only wall-clock time on the
// 2012 hardware is virtualised.
//
// Quick start, from a program inside this module (internal/core runs one
// job on one platform model):
//
//	tgt, _ := core.NewTarget("ec2", 1)
//	app, _ := core.WeakRD(8, 10, 4) // 8 ranks × 10³ elements, 4 BDF2 steps
//	rep, err := tgt.Run(core.JobSpec{Ranks: 8, App: app})
//	// rep.Iter has per-phase iteration times; rep.CostPerIter the dollars.
//
// The cmd/heterobench CLI regenerates the paper's tables; the examples/
// directory holds runnable scenario walkthroughs. This package itself holds
// only the paper-level integration tests and the examples' output digests.
package heterohpc
