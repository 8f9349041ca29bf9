package sparse_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/partition"
	"heterohpc/internal/sparse"
)

// distMatrix is what a build script sees of a matrix, from the structure-
// sharing constructors or from the per-matrix reference.
type distMatrix interface {
	Local() *sparse.CSR
	NCols() int
	ColGlobal(lc int) int
	Importer() *sparse.Importer
	SetValues(coo *sparse.COO)
	StructureView() sparse.StructureView
}

// constructor builds one matrix; like != nil asks for like's importer
// (NewDistMatrixLike).
type constructor func(r *mp.Rank, rm *sparse.RowMap, coo *sparse.COO, owner func(int) int, tag int, like distMatrix) (distMatrix, error)

func sharedConstructor(r *mp.Rank, rm *sparse.RowMap, coo *sparse.COO, owner func(int) int, tag int, like distMatrix) (distMatrix, error) {
	var dm *sparse.DistMatrix
	var err error
	if like != nil {
		dm, err = sparse.NewDistMatrixLike(like.(*sparse.DistMatrix), coo, owner, tag)
	} else {
		dm, err = sparse.NewDistMatrix(r, rm, coo, owner, tag)
	}
	if err != nil {
		return nil, err
	}
	return dm, nil
}

// expandedConstructor is sharedConstructor fed the triplets coo stands for.
func expandedConstructor(r *mp.Rank, rm *sparse.RowMap, coo *sparse.COO, owner func(int) int, tag int, like distMatrix) (distMatrix, error) {
	return sharedConstructor(r, rm, sparse.Expand(coo), owner, tag, like)
}

func refConstructor(r *mp.Rank, rm *sparse.RowMap, coo *sparse.COO, owner func(int) int, tag int, like distMatrix) (distMatrix, error) {
	var share *sparse.Importer
	if like != nil {
		share = like.Importer()
	}
	dm, err := sparse.RefNewDistMatrix(r, rm, coo, owner, tag, share)
	if err != nil {
		return nil, err
	}
	return dm, nil
}

// buildRecord is everything one rank can observe of one build: the matrix,
// the importer decision, and what the build did to the rank's clock and
// traffic counters.
type buildRecord struct {
	err       string
	local     *sparse.CSR
	colGlobal []int
	sharesImp bool // uses the importer of the matrix it was built like
	// aliases is the rank's earliest build whose pattern arrays this one
	// uses: its own index when it built a pattern for itself.
	aliases int
	// st is the symbolic structure beyond the pattern.
	st           sparse.StructureView
	now          float64
	flops, bytes float64
	msgs, msgB   int64
}

// builder is handed to a script: each call is one collective build over
// rm. s is the finite-element space rm belongs to, nil in hand-made worlds.
type builder struct {
	t     *testing.T
	r     *mp.Rank
	rm    *sparse.RowMap
	s     *fem.Space
	ctor  constructor
	recs  []buildRecord
	built []distMatrix
}

// build constructs a matrix from coo, checks that a second SetValues leaves
// the values as the build set them, and records the outcome. A build that
// fails is recorded too and returns nil.
func (b *builder) build(coo *sparse.COO, owner func(int) int, tag int, like distMatrix) distMatrix {
	dm, err := b.ctor(b.r, b.rm, coo, owner, tag, like)
	rec := buildRecord{aliases: len(b.recs)}
	if err != nil {
		rec.err = err.Error()
	} else {
		rec.local = dm.Local().Clone()
		dm.SetValues(coo)
		for i, v := range dm.Local().Val {
			if math.Float64bits(v) != math.Float64bits(rec.local.Val[i]) {
				b.t.Errorf("rank %d build %d: second SetValues moved Val[%d] from %v to %v",
					b.r.ID(), len(b.recs), i, rec.local.Val[i], v)
				break
			}
		}
		for lc := 0; lc < dm.NCols(); lc++ {
			rec.colGlobal = append(rec.colGlobal, dm.ColGlobal(lc))
		}
		rec.sharesImp = like != nil && dm.Importer() == like.Importer()
		rec.st = dm.StructureView()
		for i, prev := range b.built {
			if prev != nil && samePattern(prev.Local(), dm.Local()) {
				rec.aliases = i
				break
			}
		}
	}
	clk := b.r.Clock()
	rec.now = clk.Now()
	rec.flops, rec.bytes, rec.msgs, rec.msgB = clk.Counters()
	b.recs = append(b.recs, rec)
	b.built = append(b.built, dm)
	return dm
}

// samePattern reports whether a and b use the same RowPtr and Col arrays.
func samePattern(a, b *sparse.CSR) bool {
	return &a.RowPtr[0] == &b.RowPtr[0] && len(a.Col) > 0 && len(b.Col) > 0 && &a.Col[0] == &b.Col[0]
}

// script is one rank's sequence of assemblies and builds.
type script func(b *builder) error

// oracleWorld is a decomposition the scripts run on.
type oracleWorld struct {
	name   string
	nranks int
	mesh   *mesh.Mesh
	// victim is the rank whose COO the miss scenarios perturb: one that
	// owns rows and exports others to at least two peers.
	victim int
	space  func(r *mp.Rank) (*fem.Space, error)
}

// start returns rank r's builder over a fresh space of the decomposition.
func (ow oracleWorld) start(t *testing.T, r *mp.Rank, ctor constructor) (*builder, error) {
	s, err := ow.space(r)
	if err != nil {
		return nil, err
	}
	return &builder{t: t, r: r, rm: s.RowMap, s: s, ctor: ctor}, nil
}

// startFunc makes rank r's builder in a fresh world.
type startFunc func(t *testing.T, r *mp.Rank, ctor constructor) (*builder, error)

// blockWorld is the q×q×q block decomposition of a cube of n³ elements per
// rank.
func blockWorld(q, n, victim int) oracleWorld {
	m := mesh.NewUnitCube(q * n)
	return oracleWorld{fmt.Sprintf("block %dx%dx%d", q, q, q), q * q * q, m, victim, func(r *mp.Rank) (*fem.Space, error) {
		return fem.NewSpaceBlock(r, m, q, q, q, 1000)
	}}
}

// oracleWorlds returns the two decompositions of the distributed oracle
// tests: P = 8 blocks and an irregular graph-grown 5-part partition.
func oracleWorlds(t *testing.T) []oracleWorld {
	partsMesh := mesh.NewUnitCube(5)
	parts, err := partition.Greedy(partition.DualGraph{M: partsMesh}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleWorld{
		blockWorld(2, 4, 1),
		{"greedy 5 parts", 5, partsMesh, 3, func(r *mp.Rank) (*fem.Space, error) {
			return fem.NewSpaceParts(r, partsMesh, parts, 1000)
		}},
	}
}

// runScript runs sc on every rank of a fresh world with the given
// constructor and returns each rank's build records.
func runScript(t *testing.T, nranks int, start startFunc, ctor constructor, sc script) [][]buildRecord {
	recs := make([][]buildRecord, nranks)
	sparse.RunWorld(t, nranks, func(r *mp.Rank) error {
		b, err := start(t, r, ctor)
		if err != nil {
			return err
		}
		err = sc(b)
		recs[r.ID()] = b.recs // each rank writes its own element only
		return err
	})
	return recs
}

// requireSameAsReference runs sc through the reference and through the
// structure-sharing constructors, in two identical worlds, and requires
// every build on every rank to agree in everything a rank can observe
// (requireSameBuilds). It returns the shared run's records for the aliasing
// assertions.
func requireSameAsReference(t *testing.T, nranks int, start startFunc, sc script) [][]buildRecord {
	t.Helper()
	want := runScript(t, nranks, start, refConstructor, sc)
	got := runScript(t, nranks, start, sharedConstructor, sc)
	for rank, rs := range want {
		for i, w := range rs {
			if w.err == "" && w.aliases != i {
				t.Fatalf("rank %d build %d: the reference shares a pattern with build %d", rank, i, w.aliases)
			}
		}
	}
	requireSameBuilds(t, got, want)
	return got
}

// requireSameBuilds requires two runs of one script to agree, build by build
// and rank by rank, in everything a rank can observe: error, pattern, value
// bits, column map, refill plan and per-rank lists, importer decision,
// virtual clock, compute charges, message count and bytes.
func requireSameBuilds(t *testing.T, got, want [][]buildRecord) {
	t.Helper()
	for rank := range want {
		if len(got[rank]) != len(want[rank]) {
			t.Fatalf("rank %d: %d builds, reference made %d", rank, len(got[rank]), len(want[rank]))
		}
		for i, w := range want[rank] {
			g := got[rank][i]
			at := fmt.Sprintf("rank %d build %d", rank, i)
			if g.err != w.err {
				t.Fatalf("%s: error %q, reference %q", at, g.err, w.err)
			}
			if g.now != w.now || g.flops != w.flops || g.bytes != w.bytes {
				t.Errorf("%s: clock %v after %v flops, %v bytes; reference %v after %v, %v",
					at, g.now, g.flops, g.bytes, w.now, w.flops, w.bytes)
			}
			if g.msgs != w.msgs || g.msgB != w.msgB {
				t.Errorf("%s: %d messages, %d bytes so far; reference %d, %d",
					at, g.msgs, g.msgB, w.msgs, w.msgB)
			}
			if w.err != "" {
				continue
			}
			if !slices.Equal(g.colGlobal, w.colGlobal) {
				t.Fatalf("%s: column map differs from the reference", at)
			}
			if g.sharesImp != w.sharesImp {
				t.Errorf("%s: shares importer = %v, reference %v", at, g.sharesImp, w.sharesImp)
			}
			if d := viewDiff(g.st, w.st); d != "" {
				t.Errorf("%s: %s differ from the reference's", at, d)
			}
			sparse.RequireSameCSR(t, g.local, w.local)
		}
	}
}

// viewDiff names the first list in which two structures differ, "" when
// there is none (a nil list equals an empty one).
func viewDiff(a, b sparse.StructureView) string {
	lists := func(x, y [][]int) bool { return slices.EqualFunc(x, y, slices.Equal[[]int]) }
	switch {
	case !slices.Equal(a.Plan, b.Plan):
		return "plan"
	case !slices.Equal(a.GhostCols, b.GhostCols):
		return "ghost columns"
	case !slices.Equal(a.ExportPeers, b.ExportPeers) || !lists(a.ExportIdx, b.ExportIdx):
		return "export lists"
	case !slices.Equal(a.ImportPeers, b.ImportPeers) || !lists(a.ImportSlots, b.ImportSlots):
		return "import lists"
	}
	return ""
}

// requireAliases checks which earlier build's pattern arrays each build of
// the shared run adopted; want(rank) lists, per build, the index expected.
func requireAliases(t *testing.T, recs [][]buildRecord, want func(rank int) []int) {
	t.Helper()
	for rank, rs := range recs {
		w := want(rank)
		for i, rec := range rs {
			if rec.err == "" && rec.aliases != w[i] {
				t.Errorf("rank %d build %d uses the pattern of build %d, want %d", rank, i, rec.aliases, w[i])
			}
		}
	}
}

// sumOf returns the element callback adding up ops' 8×8 matrices.
func sumOf(ops ...func(ke *[8][8]float64)) func(int, *[8][8]float64) {
	return func(e int, out *[8][8]float64) {
		*out = [8][8]float64{}
		for _, op := range ops {
			var ke [8][8]float64
			op(&ke)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					out[a][b] += ke[a][b]
				}
			}
		}
	}
}

// rdScript is rd.Run's build sequence: the mass matrix, then the system
// matrix through the same scratch COO.
func rdScript(b *builder) error {
	el, r := b.s.El, b.r
	var coo sparse.COO
	b.s.AssembleMatrix(&coo, sumOf(func(ke *[8][8]float64) { el.Mass(1, ke, r) }))
	b.build(&coo, b.s.Owner, 1100, nil)
	b.s.AssembleMatrix(&coo, sumOf(
		func(ke *[8][8]float64) { el.Mass(28.18, ke, r) },
		func(ke *[8][8]float64) { el.Stiffness(0.83, ke, r) }))
	b.build(&coo, b.s.Owner, 1200, nil)
	return nil
}

// nsScript is nse.Run's: mass, then pressure, three gradients and velocity
// built like the mass matrix, each assembly reusing the COO.
func nsScript(b *builder) error {
	el, r := b.s.El, b.r
	var coo sparse.COO
	b.s.AssembleMatrix(&coo, sumOf(func(ke *[8][8]float64) { el.Mass(1, ke, r) }))
	mass := b.build(&coo, b.s.Owner, 2100, nil)
	b.s.AssembleMatrix(&coo, sumOf(func(ke *[8][8]float64) { el.Stiffness(1, ke, r) }))
	b.build(&coo, b.s.Owner, 2200, mass)
	for d := 0; d < 3; d++ {
		b.s.AssembleMatrix(&coo, sumOf(func(ke *[8][8]float64) { el.Gradient(d, ke, r) }))
		b.build(&coo, b.s.Owner, 2300+100*d, mass)
	}
	b.s.AssembleMatrix(&coo, sumOf(
		func(ke *[8][8]float64) { el.Mass(30, ke, r) },
		func(ke *[8][8]float64) { el.Stiffness(0.01, ke, r) },
		func(ke *[8][8]float64) { el.Convection([3]float64{1, -0.5, 0.25}, ke, r) }))
	b.build(&coo, b.s.Owner, 2600, mass)
	return nil
}

// TestInternedStructureMatchesPerRankBuild is the house-method oracle of
// structure interning: the applications' build sequences must give, build by
// build and rank by rank, the matrices, structures, importer decisions,
// clocks and traffic of the per-matrix, per-rank reference — while a rank's
// every build after the first adopts the first's arrays, and the ranks whose
// reference structures are equal in local numbering (the position classes of
// a block decomposition: 8, 27 and 27 of them; none in an irregular
// partition) share one copy between them.
func TestInternedStructureMatchesPerRankBuild(t *testing.T) {
	worlds := append(oracleWorlds(t), blockWorld(3, 2, 1), blockWorld(4, 2, 1))
	for wi, shapes := range []int{8, 5, 27, 27} {
		ow := worlds[wi]
		for _, sc := range []struct {
			name   string
			run    script
			builds int
		}{{"rd", rdScript, 2}, {"ns", nsScript, 6}} {
			t.Run(ow.name+"/"+sc.name, func(t *testing.T) {
				want := runScript(t, ow.nranks, ow.start, refConstructor, sc.run)
				got := runScript(t, ow.nranks, ow.start, sharedConstructor, sc.run)
				requireSameBuilds(t, got, want)
				for rank, rs := range got {
					if len(rs) != sc.builds {
						t.Fatalf("rank %d recorded %d builds, want %d", rank, len(rs), sc.builds)
					}
					for i, rec := range rs {
						if i > 0 && !rec.sharesImp && sc.name == "ns" {
							t.Errorf("rank %d build %d did not share the mass importer", rank, i)
						}
					}
				}
				requireAliases(t, got, func(int) []int { return make([]int, sc.builds) })
				// One plan array per distinct reference shape.
				holder := map[string]*int32{}
				for rank, rs := range want {
					v := rs[0].st
					key := fmt.Sprint(rs[0].local.RowPtr, rs[0].local.Col, v.Plan, v.ExportIdx, v.ImportSlots)
					plan := &got[rank][0].st.Plan[0]
					if first, ok := holder[key]; ok && first != plan {
						t.Errorf("rank %d holds its own copy of a shape an earlier rank holds", rank)
					}
					holder[key] = plan
				}
				if len(holder) != shapes {
					t.Errorf("%d distinct shapes over %d ranks, want %d", len(holder), ow.nranks, shapes)
				}
			})
		}
	}
}

// TestBlockFormMatchesExpandedTriplets holds "form is storage, not meaning"
// on the applications' build sequences: fed the block-form COOs the assembly
// produces or the triplets they stand for, in two identical worlds, every
// build on every rank must agree in everything observable and, beyond that,
// in the structure itself — refill plan, ghost columns, export and import
// lists — and in which earlier build's arrays it adopted.
func TestBlockFormMatchesExpandedTriplets(t *testing.T) {
	for _, ow := range oracleWorlds(t) {
		for _, sc := range []struct {
			name string
			run  script
		}{{"rd", rdScript}, {"ns", nsScript}} {
			t.Run(ow.name+"/"+sc.name, func(t *testing.T) {
				want := runScript(t, ow.nranks, ow.start, expandedConstructor, sc.run)
				got := runScript(t, ow.nranks, ow.start, sharedConstructor, sc.run)
				requireSameBuilds(t, got, want)
				for rank, rs := range got {
					for i, g := range rs {
						w := want[rank][i]
						if g.aliases != w.aliases || (i > 0 && g.aliases != 0) {
							t.Errorf("rank %d build %d adopted build %d's arrays, from triplets build %d's, want the first's",
								rank, i, g.aliases, w.aliases)
						}
					}
				}
			})
		}
	}
}

// systemCOO assembles the RD system operator, in block form as every
// assembly is: the base COO the miss scenarios perturb, after expanding it.
func systemCOO(b *builder) *sparse.COO {
	el, r := b.s.El, b.r
	var coo sparse.COO
	b.s.AssembleMatrix(&coo, sumOf(
		func(ke *[8][8]float64) { el.Mass(28.18, ke, r) },
		func(ke *[8][8]float64) { el.Stiffness(0.83, ke, r) }))
	return &coo
}

// firstTriplet returns the first triplet of coo that pred accepts.
func firstTriplet(coo *sparse.COO, pred func(t int) bool) (int, error) {
	for t := range coo.Rows {
		if pred(t) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("no triplet fits the scenario")
}

// otherOwned returns a row this rank owns other than g.
func otherOwned(b *builder, g int) int {
	o := b.s.RowMap.Owned
	if o[len(o)-1] != g {
		return o[len(o)-1]
	}
	return o[0]
}

// TestStructureReuseFallsBackExactly tests the misses of the verifier. Each
// scenario builds the base operator (whose shapes the world then holds),
// then one the victim perturbed, then the base again, and must match the
// per-matrix reference in everything observable. An edit that moves a row
// changes the fingerprint and misses the table outright; one that keeps the
// rows reaches the exact check, which must turn it down. The aliasing assertion
// says exactly which ranks had to build for themselves in the middle step
// — the victim, the peer that receives its changed stream, or both — so a
// wrong adoption and a needless rebuild both fail.
func TestStructureReuseFallsBackExactly(t *testing.T) {
	owned := func(b *builder, g int) bool { _, ok := b.s.RowMap.LocalOf(g); return ok }
	scenarios := []struct {
		name string
		// victimBuilds says whether the victim's own triplets miss.
		victimBuilds bool
		// perturb edits the victim's copy of the base COO, keeping its
		// length, and returns the peers whose incoming stream changes.
		perturb func(b *builder, coo *sparse.COO) (peers []int, err error)
	}{
		{"one local column changed", true, func(b *builder, coo *sparse.COO) ([]int, error) {
			t, err := firstTriplet(coo, func(t int) bool {
				return owned(b, coo.Rows[t]) && owned(b, coo.Cols[t])
			})
			if err != nil {
				return nil, err
			}
			coo.Cols[t] = otherOwned(b, coo.Cols[t])
			return nil, nil
		}},
		{"one local row changed, column kept", true, func(b *builder, coo *sparse.COO) ([]int, error) {
			t, err := firstTriplet(coo, func(t int) bool { return owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			coo.Rows[t] = otherOwned(b, coo.Rows[t])
			return nil, nil
		}},
		{"one local row moved to an export", true, func(b *builder, coo *sparse.COO) ([]int, error) {
			t, err := firstTriplet(coo, func(t int) bool { return owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			e, err := firstTriplet(coo, func(t int) bool { return !owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			coo.Rows[t], coo.Cols[t] = coo.Rows[e], coo.Cols[e]
			return []int{b.s.Owner(coo.Rows[e])}, nil
		}},
		{"one export re-homed to another peer", true, func(b *builder, coo *sparse.COO) ([]int, error) {
			e, err := firstTriplet(coo, func(t int) bool { return !owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			from := b.s.Owner(coo.Rows[e])
			e2, err := firstTriplet(coo, func(t int) bool {
				return !owned(b, coo.Rows[t]) && b.s.Owner(coo.Rows[t]) != from
			})
			if err != nil {
				return nil, err
			}
			coo.Rows[e], coo.Cols[e] = coo.Rows[e2], coo.Cols[e2]
			return []int{from, b.s.Owner(coo.Rows[e2])}, nil
		}},
		{"two triplets of an element swapped", true, func(b *builder, coo *sparse.COO) ([]int, error) {
			// Neighbours in one owned row: both local, different columns.
			t, err := firstTriplet(coo, func(t int) bool { return t%8 != 7 && owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			coo.Cols[t], coo.Cols[t+1] = coo.Cols[t+1], coo.Cols[t]
			coo.Vals[t], coo.Vals[t+1] = coo.Vals[t+1], coo.Vals[t]
			return nil, nil
		}},
		{"a peer ships different pairs", false, func(b *builder, coo *sparse.COO) ([]int, error) {
			// The column of an exported triplet: the victim's own plan does
			// not depend on it, so the victim adopts; the receiving peer's
			// local triplets are unchanged, and it must still notice.
			e, err := firstTriplet(coo, func(t int) bool {
				return !owned(b, coo.Rows[t]) && coo.Cols[t] != coo.Rows[t]
			})
			if err != nil {
				return nil, err
			}
			coo.Cols[e] = coo.Rows[e]
			return []int{b.s.Owner(coo.Rows[e])}, nil
		}},
	}
	// The verifier must not care which form the remembered structure was
	// built from, nor which form follows it: in the one arrangement the base
	// builds are in block form and the unperturbed ranks present the middle
	// build as triplets, in the other the reverse. (The victim's perturbed
	// COO is in triplet form either way: its edits move single pairs.)
	asAssembled := func(c *sparse.COO) *sparse.COO { return c }
	forms := []struct {
		name             string
		remembered, next func(*sparse.COO) *sparse.COO
	}{
		{"blocks remembered, triplets follow", asAssembled, sparse.Expand},
		{"triplets remembered, blocks follow", sparse.Expand, asAssembled},
	}
	for _, ow := range oracleWorlds(t) {
		for _, sn := range scenarios {
			t.Run(ow.name+"/"+sn.name, func(t *testing.T) {
				for _, fm := range forms {
					t.Run(fm.name, func(t *testing.T) {
						var peers []int // written by the victim, read after the world has run
						recs := requireSameAsReference(t, ow.nranks, ow.start, func(b *builder) error {
							assembled := systemCOO(b)
							base := fm.remembered(assembled)
							b.build(base, b.s.Owner, 1200, nil)
							mid := fm.next(assembled)
							if b.r.ID() == ow.victim {
								mid = sparse.Expand(assembled)
								var err error
								if peers, err = sn.perturb(b, mid); err != nil {
									return err
								}
							}
							b.build(mid, b.s.Owner, 1300, nil)
							b.build(base, b.s.Owner, 1400, nil)
							return nil
						})
						requireAliases(t, recs, func(rank int) []int {
							if (rank == ow.victim && sn.victimBuilds) || slices.Contains(peers, rank) {
								return []int{0, 1, 0}
							}
							return []int{0, 0, 0}
						})
					})
				}
			})
		}
	}
}

// TestStructureReuseChecksInsideBlocks: the verifier looks a row up once per
// segment but must still check every contribution. The victim's first build
// is the operator's sequence with one pair changed in the middle of a block
// row (as triplets, which alone can say that) — a local column, or an
// exported pair turned into a local one; the block-form COO that follows
// agrees with the remembered plan at the first contribution of every segment
// and must not adopt it.
func TestStructureReuseChecksInsideBlocks(t *testing.T) {
	owned := func(b *builder, g int) bool { _, ok := b.s.RowMap.LocalOf(g); return ok }
	for _, sn := range []struct {
		name string
		// perturb edits the victim's triplets at a contribution that is not
		// its segment's first and returns the peers whose streams change.
		perturb func(b *builder, coo *sparse.COO) (peers []int, err error)
	}{
		{"a local column", func(b *builder, coo *sparse.COO) ([]int, error) {
			at, err := firstTriplet(coo, func(t int) bool {
				return t%8 == 5 && owned(b, coo.Rows[t]) && owned(b, coo.Cols[t])
			})
			if err != nil {
				return nil, err
			}
			coo.Cols[at] = otherOwned(b, coo.Cols[at])
			return nil, nil
		}},
		{"an exported pair made local", func(b *builder, coo *sparse.COO) ([]int, error) {
			at, err := firstTriplet(coo, func(t int) bool { return t%8 == 5 && !owned(b, coo.Rows[t]) })
			if err != nil {
				return nil, err
			}
			peer := b.s.Owner(coo.Rows[at])
			coo.Rows[at], coo.Cols[at] = b.s.RowMap.Owned[0], b.s.RowMap.Owned[0]
			return []int{peer}, nil
		}},
	} {
		for _, ow := range oracleWorlds(t) {
			t.Run(sn.name+"/"+ow.name, func(t *testing.T) {
				var peers []int // written by the victim, read after the world has run
				recs := requireSameAsReference(t, ow.nranks, ow.start, func(b *builder) error {
					assembled := systemCOO(b)
					first := assembled
					if b.r.ID() == ow.victim {
						first = sparse.Expand(assembled)
						var err error
						if peers, err = sn.perturb(b, first); err != nil {
							return err
						}
					}
					b.build(first, b.s.Owner, 1200, nil)
					b.build(assembled, b.s.Owner, 1300, nil)
					return nil
				})
				requireAliases(t, recs, func(rank int) []int {
					if rank == ow.victim || slices.Contains(peers, rank) {
						return []int{0, 1}
					}
					return []int{0, 0}
				})
			})
		}
	}
}

// TestStructureReuseKeepsStencilsApart builds two genuinely different
// stencils of equal triplet count over one RowMap — the element coupling
// and a diagonal-only operator — alternately. Rows and stream lengths agree,
// so the two shapes share a fingerprint and sit in one chain of the world's
// table: both must be kept, and each later build must adopt the right one.
func TestStructureReuseKeepsStencilsApart(t *testing.T) {
	for _, ow := range oracleWorlds(t) {
		t.Run(ow.name, func(t *testing.T) {
			recs := requireSameAsReference(t, ow.nranks, ow.start, func(b *builder) error {
				full := systemCOO(b)
				diag := sparse.Expand(full)
				copy(diag.Cols, diag.Rows)
				for i, coo := range []*sparse.COO{full, diag, full, diag, diag, full} {
					b.build(coo, b.s.Owner, 1200+100*i, nil)
				}
				return nil
			})
			requireAliases(t, recs, func(int) []int { return []int{0, 1, 0, 1, 1, 0} })
		})
	}
}

// TestStructureReuseKeepsBadOwnerError: a triplet whose row nobody owns
// must fail on every rank with the per-matrix build's error, before any
// message is sent, also when a structure of the same length is remembered
// — and the remembered structure must still serve the next build.
func TestStructureReuseKeepsBadOwnerError(t *testing.T) {
	for _, ow := range oracleWorlds(t) {
		t.Run(ow.name, func(t *testing.T) {
			stray := ow.mesh.NumVerts() + 7
			recs := requireSameAsReference(t, ow.nranks, ow.start, func(b *builder) error {
				base := systemCOO(b)
				b.build(base, b.s.Owner, 1200, nil)
				bad := sparse.Expand(base)
				bad.Rows[len(bad.Rows)/2] = stray
				b.build(bad, func(g int) int {
					if g == stray {
						return b.r.ID()
					}
					return b.s.Owner(g)
				}, 1300, nil)
				b.build(base, b.s.Owner, 1400, nil)
				return nil
			})
			for rank, rs := range recs {
				want := fmt.Sprintf("sparse: row %d has bad owner %d", stray, rank)
				if rs[1].err != want {
					t.Errorf("rank %d: error %q, want %q", rank, rs[1].err, want)
				}
			}
			requireAliases(t, recs, func(int) []int { return []int{0, 1, 0} })
		})
	}
}

// TestStructureReuseChecksStreams holds the incoming half of the
// certificate on three ranks, rank g owning row g. Rank 0's own triplets
// never change; what changes from build to build is which peers ship it
// which pairs, in ways its own contributions cannot show. Who ships is no
// part of a shape — the source is bound into the rank's import list — so the
// same pairs from another source follow the first build's shape, and must
// still come out with the reference's import peers (requireSameBuilds).
func TestStructureReuseChecksStreams(t *testing.T) {
	type pair = [2]int
	var (
		keep1 = []pair{{1, 1}, {1, 1}} // rank 1 ships nothing
		ship1 = []pair{{1, 1}, {0, 1}} // rank 1 ships (0,1) to rank 0
		twice = []pair{{1, 1}, {0, 1}, {0, 1}}
		keep2 = []pair{{2, 2}, {2, 2}}
		ship2 = []pair{{2, 2}, {0, 1}} // rank 2 ships the same pair
	)
	builds := []struct {
		name    string
		r1, r2  []pair
		aliases [3]int // per rank: the build whose pattern this one must use
	}{
		{"rank 1 ships", ship1, keep2, [3]int{0, 0, 0}},
		{"same pairs from another source", keep1, ship2, [3]int{0, 1, 1}},
		{"one more source", ship1, ship2, [3]int{2, 0, 1}},
		{"same source, the stream one pair longer", twice, keep2, [3]int{3, 3, 0}},
		{"first again", ship1, keep2, [3]int{0, 0, 0}},
		{"second again", keep1, ship2, [3]int{0, 1, 1}},
	}
	start := func(t *testing.T, r *mp.Rank, ctor constructor) (*builder, error) {
		return &builder{t: t, r: r, rm: sparse.NewRowMap([]int{r.ID()}), ctor: ctor}, nil
	}
	recs := requireSameAsReference(t, 3, start, func(b *builder) error {
		for i, bd := range builds {
			pairs := [][]pair{{{0, 0}}, bd.r1, bd.r2}[b.r.ID()]
			var coo sparse.COO
			for k, p := range pairs {
				coo.Add(p[0], p[1], float64(1+k+10*b.r.ID()+100*i))
			}
			b.build(&coo, func(g int) int { return g }, 100*i, nil)
		}
		return nil
	})
	requireAliases(t, recs, func(rank int) []int {
		want := make([]int, len(builds))
		for i, bd := range builds {
			want[i] = bd.aliases[rank]
		}
		return want
	})
}

// TestStructureReuseBindsGhostsInOrder: four ranks, rank g owning row g, each
// of ranks 1–3 with three contributions to its one row — one fingerprint.
// Ranks 1 and 3 meet their two ghost columns in ascending order of id and
// must share one shape; rank 2 meets the larger id first, so the same slots
// would bind its ghost columns in descending order, and it must hold a shape
// of its own — with the reference's plan and column map, whoever built first.
func TestStructureReuseBindsGhostsInOrder(t *testing.T) {
	cols := [][]int{{0}, {1, 0, 2}, {2, 3, 1}, {3, 0, 2}}
	start := func(t *testing.T, r *mp.Rank, ctor constructor) (*builder, error) {
		return &builder{t: t, r: r, rm: sparse.NewRowMap([]int{r.ID()}), ctor: ctor}, nil
	}
	recs := requireSameAsReference(t, 4, start, func(b *builder) error {
		var coo sparse.COO
		for i, c := range cols[b.r.ID()] {
			coo.Add(b.r.ID(), c, float64(1+i+10*b.r.ID()))
		}
		b.build(&coo, func(g int) int { return g }, 100, nil)
		return nil
	})
	plan := func(rank int) *int32 { return &recs[rank][0].st.Plan[0] }
	if plan(1) != plan(3) {
		t.Errorf("ranks 1 and 3 hold a copy each of one shape")
	}
	if plan(2) == plan(1) {
		t.Errorf("rank 2 adopted a shape that numbers its ghost columns out of order")
	}
}
