package sparse_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// chargeLog is a compute rater that logs every compute charge, per rank: a
// rank's charges are made on its own goroutine, which the rank registers on
// entry.
type chargeLog struct {
	vclock.LinearRater
	mu   sync.Mutex
	rank map[uint64]int // goroutine id -> rank
	log  [][][2]float64
}

func newChargeLog(nranks int) *chargeLog {
	return &chargeLog{LinearRater: vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 3e9},
		rank: map[uint64]int{}, log: make([][][2]float64, nranks)}
}

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func (l *chargeLog) register(rank int) {
	l.mu.Lock()
	l.rank[goid()] = rank
	l.mu.Unlock()
}

func (l *chargeLog) ComputeSeconds(flops, bytes float64) float64 {
	id := goid()
	l.mu.Lock()
	if r, ok := l.rank[id]; ok {
		l.log[r] = append(l.log[r], [2]float64{flops, bytes})
	}
	l.mu.Unlock()
	return l.LinearRater.ComputeSeconds(flops, bytes)
}

// streamOp is one operator of an application's build sequence: its element
// matrices at round k (0 the build, then the refills), its tag, and the
// index of the earlier operator whose importer it may share (-1: none).
type streamOp struct {
	elem func(s *fem.Space, k int) fem.ElemMatrix
	tag  int
	like int
}

func sumOps(ops ...func(e int, ke *[8][8]float64, ch sparse.Charger)) fem.ElemMatrix {
	return func(e int, out *[8][8]float64, ch sparse.Charger) {
		*out = [8][8]float64{}
		for _, op := range ops {
			var ke [8][8]float64
			op(e, &ke, ch)
			for a := range ke {
				for b := range ke[a] {
					out[a][b] += ke[a][b]
				}
			}
		}
	}
}

func massOp(c float64, s *fem.Space) func(int, *[8][8]float64, sparse.Charger) {
	return func(_ int, ke *[8][8]float64, ch sparse.Charger) { s.El.Mass(c, ke, ch) }
}

func stiffOp(c float64, s *fem.Space) func(int, *[8][8]float64, sparse.Charger) {
	return func(_ int, ke *[8][8]float64, ch sparse.Charger) { s.El.Stiffness(c, ke, ch) }
}

// rdOps are rd.Run's two operators: the mass matrix and the time-dependent
// system matrix.
var rdOps = []streamOp{
	{func(s *fem.Space, k int) fem.ElemMatrix { return sumOps(massOp(1+float64(k), s)) }, 1100, -1},
	{func(s *fem.Space, k int) fem.ElemMatrix {
		t := 1.1 + 0.05*float64(k)
		return sumOps(massOp(30-2/t, s), stiffOp(1/(t*t), s))
	}, 1200, -1},
}

// nsOps are nse.Run's six: mass, pressure and three gradients, then the
// velocity operator, whose convection term differs element by element; all
// built like the mass matrix.
var nsOps = func() []streamOp {
	ops := []streamOp{
		{func(s *fem.Space, k int) fem.ElemMatrix { return sumOps(massOp(1+float64(k), s)) }, 2100, -1},
		{func(s *fem.Space, k int) fem.ElemMatrix { return sumOps(stiffOp(1+float64(k), s)) }, 2200, 0},
	}
	for d := 0; d < 3; d++ {
		ops = append(ops, streamOp{func(s *fem.Space, k int) fem.ElemMatrix {
			return sumOps(func(_ int, ke *[8][8]float64, ch sparse.Charger) {
				s.El.Gradient((d+k)%3, ke, ch)
			})
		}, 2300 + 100*d, 0})
	}
	return append(ops, streamOp{func(s *fem.Space, k int) fem.ElemMatrix {
		return sumOps(massOp(750, s), stiffOp(0.01, s), func(e int, ke *[8][8]float64, ch sparse.Charger) {
			w := [3]float64{math.Sin(float64(e + k)), math.Cos(float64(3 * e)), 0.25 * float64(k)}
			s.El.Convection(w, ke, ch)
		})
	}, 2600, 0})
}()

// streamRecord is what one rank observes after one build or refill.
type streamRecord struct {
	val          []float64
	now          float64
	flops, bytes float64
	msgs, msgB   int64
	charges      int
}

// streamRun is everything two runs of a script must agree in.
type streamRun struct {
	recs             [][]streamRecord
	charges          [][][2]float64
	journal, metrics []byte
}

// streamPath is one way to build and refill an operator on a rank.
type streamPath interface {
	build(r *mp.Rank, s *fem.Space, elem fem.ElemMatrix, tag int, like any) (any, *sparse.CSR, error)
	refill(s *fem.Space, dm any, elem fem.ElemMatrix)
}

// cooPath is the assembly as it was: every element matrix stored in a COO,
// AssembleMatrix then the per-matrix reference build (refNewDistMatrix),
// AssembleMatrixValues then the reference's SetValues.
type cooPath struct{ coo sparse.COO }

func adapt(elem fem.ElemMatrix, ch sparse.Charger) func(int, *[8][8]float64) {
	return func(e int, out *[8][8]float64) { elem(e, out, ch) }
}

func (p *cooPath) build(r *mp.Rank, s *fem.Space, elem fem.ElemMatrix, tag int, like any) (any, *sparse.CSR, error) {
	s.AssembleMatrix(&p.coo, adapt(elem, r))
	var share *sparse.Importer
	if like != nil {
		share = like.(distMatrix).Importer()
	}
	dm, err := sparse.RefNewDistMatrix(r, s.RowMap, &p.coo, s.Owner, tag, share)
	if err != nil {
		return nil, nil, err
	}
	return dm, dm.Local(), nil
}

func (p *cooPath) refill(s *fem.Space, dm any, elem fem.ElemMatrix) {
	s.AssembleMatrixValues(&p.coo, adapt(elem, s.R))
	dm.(distMatrix).SetValues(&p.coo)
}

// streamedPath is fem.Space.NewMatrix and fem.Space.Refill.
type streamedPath struct{}

func (streamedPath) build(_ *mp.Rank, s *fem.Space, elem fem.ElemMatrix, tag int, like any) (any, *sparse.CSR, error) {
	var l *sparse.DistMatrix
	if like != nil {
		l = like.(*sparse.DistMatrix)
	}
	dm, err := s.NewMatrix(elem, tag, l)
	if err != nil {
		return nil, nil, err
	}
	return dm, dm.Local(), nil
}

func (streamedPath) refill(s *fem.Space, dm any, elem fem.ElemMatrix) {
	s.Refill(dm.(*sparse.DistMatrix), elem)
}

// runStreamed runs ops through the path newPath makes per rank, in a fresh
// observed world of ow: every operator is built, then refilled three times.
func runStreamed(t *testing.T, ow oracleWorld, ops []streamOp, newPath func() streamPath) streamRun {
	t.Helper()
	topo, err := mp.BlockTopology(ow.nranks, 2)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	cl := newChargeLog(ow.nranks)
	w, err := mp.NewWorld(topo, fab, cl)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun()
	w.Observe(run)
	out := streamRun{recs: make([][]streamRecord, ow.nranks)}
	err = w.Run(func(r *mp.Rank) error {
		cl.register(r.ID())
		s, err := ow.space(r)
		if err != nil {
			return err
		}
		path := newPath()
		record := func(a *sparse.CSR) {
			rec := streamRecord{val: slices.Clone(a.Val), now: r.Wtime()}
			rec.flops, rec.bytes, rec.msgs, rec.msgB = r.Clock().Counters()
			cl.mu.Lock()
			rec.charges = len(cl.log[r.ID()])
			cl.mu.Unlock()
			out.recs[r.ID()] = append(out.recs[r.ID()], rec)
		}
		dms := make([]any, len(ops))
		locals := make([]*sparse.CSR, len(ops))
		for i, op := range ops {
			var like any
			if op.like >= 0 {
				like = dms[op.like]
			}
			if dms[i], locals[i], err = path.build(r, s, op.elem(s, 0), op.tag, like); err != nil {
				return err
			}
			record(locals[i])
		}
		for k := 1; k <= 3; k++ {
			for i, op := range ops {
				path.refill(s, dms[i], op.elem(s, k))
				record(locals[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.FlushObs()
	var jb, mb bytes.Buffer
	if err := run.WriteJournal(&jb); err != nil {
		t.Fatal(err)
	}
	if err := run.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	out.charges, out.journal, out.metrics = cl.log, jb.Bytes(), mb.Bytes()
	return out
}

// TestStreamedAssemblyMatchesCOO is the house-method oracle of the streamed
// assembly: rd's two operators and nse's six, built with fem.Space.NewMatrix
// and refilled three times with fem.Space.Refill, must give on every rank,
// after every build and refill, the value bits, clock, compute counters,
// message count and bytes of the path that stored each element matrix in a
// COO (AssembleMatrix, the per-matrix reference build, AssembleMatrixValues,
// the reference's SetValues) — and, over the run, the same sequence of
// compute charges on every rank and the same journal (whose "pool" event
// counts the payloads sent and received) and metrics.
func TestStreamedAssemblyMatchesCOO(t *testing.T) {
	for _, ow := range oracleWorlds(t) {
		for _, app := range []struct {
			name string
			ops  []streamOp
		}{{"rd", rdOps}, {"ns", nsOps}} {
			t.Run(ow.name+"/"+app.name, func(t *testing.T) {
				want := runStreamed(t, ow, app.ops, func() streamPath { return &cooPath{} })
				got := runStreamed(t, ow, app.ops, func() streamPath { return streamedPath{} })
				for rank, ws := range want.recs {
					if len(got.recs[rank]) != len(ws) {
						t.Fatalf("rank %d: %d records, reference %d", rank, len(got.recs[rank]), len(ws))
					}
					for i, w := range ws {
						g := got.recs[rank][i]
						at := fmt.Sprintf("rank %d, operator %d, round %d", rank, i%len(app.ops), i/len(app.ops))
						if g.now != w.now || g.flops != w.flops || g.bytes != w.bytes || g.charges != w.charges {
							t.Errorf("%s: clock %v after %v flops, %v bytes, %d charges; reference %v after %v, %v, %d",
								at, g.now, g.flops, g.bytes, g.charges, w.now, w.flops, w.bytes, w.charges)
						}
						if g.msgs != w.msgs || g.msgB != w.msgB {
							t.Errorf("%s: %d messages, %d bytes so far; reference %d, %d", at, g.msgs, g.msgB, w.msgs, w.msgB)
						}
						if !slices.EqualFunc(g.val, w.val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
							t.Errorf("%s: values differ from the reference's", at)
						}
					}
					if !slices.Equal(got.charges[rank], want.charges[rank]) {
						t.Errorf("rank %d: the sequence of compute charges differs from the reference's", rank)
					}
				}
				if !bytes.Equal(got.journal, want.journal) {
					t.Errorf("journal differs from the reference's:\n%s\nreference:\n%s", got.journal, want.journal)
				}
				if !bytes.Equal(got.metrics, want.metrics) {
					t.Errorf("metrics differ from the reference's:\n%s\nreference:\n%s", got.metrics, want.metrics)
				}
			})
		}
	}
}

// TestSpaceRefillRejectsAForeignStructure: a matrix whose structure counts
// one element more or one fewer than the space streams must make Refill
// panic with the length check's message before anything is evaluated,
// zeroed or sent — the values, clock and traffic stay as they were, and a
// correct refill still pairs up across ranks afterwards.
func TestSpaceRefillRejectsAForeignStructure(t *testing.T) {
	ow := oracleWorlds(t)[0]
	for _, delta := range []int{-1, 1} {
		sparse.RunWorld(t, ow.nranks, func(r *mp.Rank) error {
			s, err := ow.space(r)
			if err != nil {
				return err
			}
			elem := sumOps(massOp(2, s), stiffOp(0.5, s))
			var coo sparse.COO
			s.AssembleMatrix(&coo, adapt(elem, r))
			n := 64 * len(s.L.Elems)
			foreign := sparse.Expand(&coo)
			if delta < 0 {
				foreign.Rows, foreign.Cols, foreign.Vals = foreign.Rows[:n-64], foreign.Cols[:n-64], foreign.Vals[:n-64]
			} else {
				foreign.Rows = append(foreign.Rows, foreign.Rows[:64]...)
				foreign.Cols = append(foreign.Cols, foreign.Cols[:64]...)
				foreign.Vals = append(foreign.Vals, foreign.Vals[:64]...)
			}
			dm, err := sparse.NewDistMatrix(r, s.RowMap, foreign, s.Owner, 1100)
			if err != nil {
				return err
			}
			before := slices.Clone(dm.Local().Val)
			now := r.Wtime()
			_, _, msgs, _ := r.Clock().Counters()
			want := fmt.Sprintf("sparse: Refill with %d values, structure has %d", n, n+64*delta)
			got := func() (msg any) {
				defer func() { msg = recover() }()
				s.Refill(dm, elem)
				return nil
			}()
			if got != want {
				return fmt.Errorf("Refill of a foreign structure: panic %v, want %q", got, want)
			}
			_, _, msgsAfter, _ := r.Clock().Counters()
			if !slices.Equal(dm.Local().Val, before) || r.Wtime() != now || msgsAfter != msgs {
				return fmt.Errorf("the rejected Refill changed the matrix, the clock or the traffic")
			}
			dm.SetValues(foreign)
			if !slices.Equal(dm.Local().Val, before) {
				return fmt.Errorf("refill after the rejection gives other values")
			}
			return nil
		})
	}
}
