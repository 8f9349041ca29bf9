package checkpoint

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heterohpc/internal/h5lite"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

func runRanks(t *testing.T, nranks int, body func(r *mp.Rank) error) {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	st := rd.State{
		StepsDone: 3,
		Time:      1.15,
		U1:        []float64{1.5, -2.5, 3.25},
		U2:        []float64{0.5, 0.25, -0.125},
	}
	var buf bytes.Buffer
	if err := WriteRD(&buf, st, 2, 8, []int{10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	got, rank, nranks, ids, err := ReadRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 || nranks != 8 {
		t.Fatalf("rank/nranks = %d/%d", rank, nranks)
	}
	if got.StepsDone != 3 || got.Time != 1.15 {
		t.Fatalf("metadata %+v", got)
	}
	for i := range st.U1 {
		if got.U1[i] != st.U1[i] || got.U2[i] != st.U2[i] {
			t.Fatalf("vectors differ at %d", i)
		}
	}
	if len(ids) != 3 || ids[2] != 12 {
		t.Fatalf("ids %v", ids)
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	bad := rd.State{U1: []float64{1}, U2: []float64{1, 2}}
	if err := WriteRD(&buf, bad, 0, 1, []int{0}); err == nil {
		t.Error("inconsistent vectors accepted")
	}
	ok := rd.State{U1: []float64{1}, U2: []float64{2}}
	if err := WriteRD(&buf, ok, 0, 1, []int{0, 1}); err == nil {
		t.Error("mismatched ids accepted")
	}
}

func TestReadRejectsNonCheckpoint(t *testing.T) {
	if _, _, _, _, err := ReadRD(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
}

// The headline guarantee: interrupting a run at a checkpoint and resuming
// reproduces the uninterrupted run bit-for-bit (the solver is deterministic
// and the checkpoint stores exact floats).
func TestResumeMatchesStraightRun(t *testing.T) {
	m := mesh.NewUnitCube(6)
	const nranks = 8
	const totalSteps = 4
	const stopAfter = 2

	straight := make([][]float64, nranks)
	runRanks(t, nranks, func(r *mp.Rank) error {
		res, err := rd.Run(r, rd.Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: totalSteps})
		if err != nil {
			return err
		}
		straight[r.ID()] = res.Solution
		return nil
	})

	// Owned ids per rank, for the checkpoint containers.
	ownedIDs := make([][]int, nranks)
	for rank := 0; rank < nranks; rank++ {
		l, err := mesh.NewLocalFromBlock(m, 2, 2, 2, rank)
		if err != nil {
			t.Fatal(err)
		}
		ownedIDs[rank] = l.VertGlobal[:l.NumOwned]
	}

	// Phase 1: run to the checkpoint, serialising each rank's state.
	blobs := make([]bytes.Buffer, nranks)
	runRanks(t, nranks, func(r *mp.Rank) error {
		_, err := rd.Run(r, rd.Config{
			Mesh: m, Grid: [3]int{2, 2, 2}, Steps: stopAfter,
			Checkpoint: func(st rd.State) error {
				blobs[r.ID()].Reset() // keep only the latest checkpoint
				return WriteRD(&blobs[r.ID()], st, r.ID(), r.Size(), ownedIDs[r.ID()])
			},
		})
		return err
	})

	// Phase 2: restore and finish; compare with the straight run.
	resumed := make([][]float64, nranks)
	runRanks(t, nranks, func(r *mp.Rank) error {
		st, rank, nr, _, err := ReadRD(bytes.NewReader(blobs[r.ID()].Bytes()))
		if err != nil {
			return err
		}
		if rank != r.ID() || nr != nranks {
			return fmt.Errorf("checkpoint belongs to rank %d/%d", rank, nr)
		}
		res, err := rd.Run(r, rd.Config{
			Mesh: m, Grid: [3]int{2, 2, 2}, Steps: totalSteps, Resume: &st,
		})
		if err != nil {
			return err
		}
		if len(res.StepTimes) != totalSteps-stopAfter {
			return fmt.Errorf("resumed run executed %d steps, want %d",
				len(res.StepTimes), totalSteps-stopAfter)
		}
		resumed[r.ID()] = res.Solution
		return nil
	})

	for rank := range straight {
		if len(straight[rank]) != len(resumed[rank]) {
			t.Fatalf("rank %d solution lengths differ", rank)
		}
		for i := range straight[rank] {
			if straight[rank][i] != resumed[rank][i] {
				t.Fatalf("rank %d dof %d: straight %v vs resumed %v",
					rank, i, straight[rank][i], resumed[rank][i])
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	m := mesh.NewUnitCube(4)
	runRanks(t, 1, func(r *mp.Rank) error {
		bad := &rd.State{StepsDone: 1, U1: []float64{1}, U2: []float64{1}}
		if _, err := rd.Run(r, rd.Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2, Resume: bad}); err == nil {
			return fmt.Errorf("short resume state accepted")
		}
		n := m.NumVerts()
		tooFar := &rd.State{StepsDone: 5, U1: make([]float64, n), U2: make([]float64, n)}
		if _, err := rd.Run(r, rd.Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2, Resume: tooFar}); err == nil {
			return fmt.Errorf("out-of-range resume step accepted")
		}
		return nil
	})
}

func TestReadRejectsCorruptedContainers(t *testing.T) {
	good := rd.State{StepsDone: 1, Time: 1.05, U1: []float64{1, 2}, U2: []float64{3, 4}}
	var buf bytes.Buffer
	if err := WriteRD(&buf, good, 0, 1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// A container missing rd/u1 is rejected.
	f := h5lite.New()
	if err := f.CreateF64("other", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if _, err := f.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b2); err == nil {
		t.Error("container without rd/u1 accepted")
	}
	// A wrong format version is rejected.
	f2 := h5lite.New()
	_ = f2.CreateF64("rd/u1", []int{1}, []float64{1})
	_ = f2.CreateF64("rd/u2", []int{1}, []float64{1})
	_ = f2.CreateI64("rd/owned", []int{1}, []int64{0})
	_ = f2.SetAttr("rd/u1", "version", "999")
	var b3 bytes.Buffer
	if _, err := f2.WriteTo(&b3); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b3); err == nil {
		t.Error("wrong version accepted")
	}
	// Missing metadata attributes are rejected.
	f3 := h5lite.New()
	_ = f3.CreateF64("rd/u1", []int{1}, []float64{1})
	_ = f3.CreateF64("rd/u2", []int{1}, []float64{1})
	_ = f3.CreateI64("rd/owned", []int{1}, []int64{0})
	_ = f3.SetAttr("rd/u1", "version", FormatVersion)
	var b4 bytes.Buffer
	if _, err := f3.WriteTo(&b4); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b4); err == nil {
		t.Error("missing steps attribute accepted")
	}
	// Mismatched u2 length is rejected.
	f4 := h5lite.New()
	_ = f4.CreateF64("rd/u1", []int{2}, []float64{1, 2})
	_ = f4.CreateF64("rd/u2", []int{1}, []float64{1})
	_ = f4.CreateI64("rd/owned", []int{2}, []int64{0, 1})
	_ = f4.SetAttr("rd/u1", "version", FormatVersion)
	var b5 bytes.Buffer
	if _, err := f4.WriteTo(&b5); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b5); err == nil {
		t.Error("mismatched u2 accepted")
	}
}

func TestWriteReadNSERoundTrip(t *testing.T) {
	st := nse.State{
		StepsDone: 2,
		Time:      0.008,
		U1:        [3][]float64{{1.5, -2.5}, {0.5, 0.25}, {3, 4}},
		U2:        [3][]float64{{-1, 1}, {2, -2}, {0.125, 8}},
		P:         []float64{9.5, -0.75},
	}
	var buf bytes.Buffer
	if err := Write(&buf, AppNS, nsSnapshot(st, 3, 8, []int{20, 21})); err != nil {
		t.Fatal(err)
	}
	s, err := Read(&buf, AppNS)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank != 3 || s.Width != 8 {
		t.Fatalf("rank/nranks = %d/%d", s.Rank, s.Width)
	}
	got, ids := nsState(s), s.Owned
	if got.StepsDone != 2 || got.Time != 0.008 {
		t.Fatalf("metadata %+v", got)
	}
	for d := 0; d < 3; d++ {
		for i := range st.U1[d] {
			if got.U1[d][i] != st.U1[d][i] || got.U2[d][i] != st.U2[d][i] {
				t.Fatalf("velocity component %d differs at %d", d, i)
			}
		}
	}
	for i := range st.P {
		if got.P[i] != st.P[i] {
			t.Fatalf("pressure differs at %d", i)
		}
	}
	if len(ids) != 2 || ids[1] != 21 {
		t.Fatalf("ids %v", ids)
	}
}

func TestNSEWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	bad := nse.State{U1: [3][]float64{{1}, {1}, {1, 2}}, U2: [3][]float64{{1}, {1}, {1}}, P: []float64{1}}
	if err := Write(&buf, AppNS, nsSnapshot(bad, 0, 1, []int{0})); err == nil {
		t.Error("inconsistent vectors accepted")
	}
	ok := nse.State{U1: [3][]float64{{1}, {1}, {1}}, U2: [3][]float64{{1}, {1}, {1}}, P: []float64{1}}
	if err := Write(&buf, AppNS, nsSnapshot(ok, 0, 1, []int{0, 1})); err == nil {
		t.Error("mismatched ids accepted")
	}
}

// The app tag keeps the two solvers' containers apart without a version bump.
func TestAppTagSeparatesSolvers(t *testing.T) {
	rdSt := rd.State{StepsDone: 1, Time: 1.05, U1: []float64{1}, U2: []float64{2}}
	var rdBuf bytes.Buffer
	if err := WriteRD(&rdBuf, rdSt, 0, 1, []int{0}); err != nil {
		t.Fatal(err)
	}
	nsSt := nse.State{StepsDone: 1, Time: 0.006,
		U1: [3][]float64{{1}, {2}, {3}}, U2: [3][]float64{{4}, {5}, {6}}, P: []float64{7}}
	var nsBuf bytes.Buffer
	if err := Write(&nsBuf, AppNS, nsSnapshot(nsSt, 0, 1, []int{0})); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(rdBuf.Bytes()), AppNS); err == nil {
		t.Error("Read(AppNS) accepted an RD container")
	}
	if _, _, _, _, err := ReadRD(bytes.NewReader(nsBuf.Bytes())); err == nil {
		t.Error("ReadRD accepted an NS container")
	}
	// A forged RD container carrying a foreign app tag is rejected even
	// though the datasets are in place.
	f := h5lite.New()
	_ = f.CreateF64("rd/u1", []int{1}, []float64{1})
	_ = f.CreateF64("rd/u2", []int{1}, []float64{1})
	_ = f.CreateI64("rd/owned", []int{1}, []int64{0})
	_ = f.SetAttr("rd/u1", "version", FormatVersion)
	_ = f.SetAttr("rd/u1", "app", AppNS)
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b); err == nil {
		t.Error("RD container with NS app tag accepted")
	}
	// A tag-less RD container (pre-tag writer) still restores.
	f2 := h5lite.New()
	_ = f2.CreateF64("rd/u1", []int{1}, []float64{1})
	_ = f2.CreateF64("rd/u2", []int{1}, []float64{1})
	_ = f2.CreateI64("rd/owned", []int{1}, []int64{0})
	_ = f2.SetAttr("rd/u1", "version", FormatVersion)
	_ = f2.SetAttr("rd/u1", "steps", "1")
	_ = f2.SetAttr("rd/u1", "time", "0x1p+00")
	_ = f2.SetAttr("rd/u1", "rank", "0")
	_ = f2.SetAttr("rd/u1", "nranks", "1")
	var b2 bytes.Buffer
	if _, err := f2.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadRD(&b2); err != nil {
		t.Errorf("tag-less RD container rejected: %v", err)
	}
}

// Interrupting a Navier–Stokes run at a checkpoint and resuming reproduces
// the uninterrupted run bit-for-bit, mirroring the RD guarantee.
func TestNSEResumeMatchesStraightRun(t *testing.T) {
	m, err := mesh.NewBox(mesh.SymmetricBox, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const nranks = 8
	const totalSteps = 4
	const stopAfter = 2
	cfg := nse.Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: totalSteps, Dt: 0.002}

	straightU := make([][3][]float64, nranks)
	straightP := make([][]float64, nranks)
	runRanks(t, nranks, func(r *mp.Rank) error {
		res, err := nse.Run(r, cfg)
		if err != nil {
			return err
		}
		straightU[r.ID()] = res.Velocity
		straightP[r.ID()] = res.Pressure
		return nil
	})

	ownedIDs := make([][]int, nranks)
	for rank := 0; rank < nranks; rank++ {
		l, err := mesh.NewLocalFromBlock(m, 2, 2, 2, rank)
		if err != nil {
			t.Fatal(err)
		}
		ownedIDs[rank] = l.VertGlobal[:l.NumOwned]
	}

	blobs := make([]bytes.Buffer, nranks)
	runRanks(t, nranks, func(r *mp.Rank) error {
		short := cfg
		short.Steps = stopAfter
		short.Checkpoint = func(st nse.State) error {
			blobs[r.ID()].Reset() // keep only the latest checkpoint
			return Write(&blobs[r.ID()], AppNS, nsSnapshot(st, r.ID(), r.Size(), ownedIDs[r.ID()]))
		}
		_, err := nse.Run(r, short)
		return err
	})

	runRanks(t, nranks, func(r *mp.Rank) error {
		s, err := Read(bytes.NewReader(blobs[r.ID()].Bytes()), AppNS)
		if err != nil {
			return err
		}
		if s.Rank != r.ID() || s.Width != nranks {
			return fmt.Errorf("checkpoint belongs to rank %d/%d", s.Rank, s.Width)
		}
		st := nsState(s)
		resumedCfg := cfg
		resumedCfg.Resume = &st
		res, err := nse.Run(r, resumedCfg)
		if err != nil {
			return err
		}
		if len(res.StepTimes) != totalSteps-stopAfter {
			return fmt.Errorf("resumed run executed %d steps, want %d",
				len(res.StepTimes), totalSteps-stopAfter)
		}
		for d := 0; d < 3; d++ {
			for i := range res.Velocity[d] {
				if res.Velocity[d][i] != straightU[r.ID()][d][i] {
					return fmt.Errorf("rank %d velocity %d dof %d differs", r.ID(), d, i)
				}
			}
		}
		for i := range res.Pressure {
			if res.Pressure[i] != straightP[r.ID()][i] {
				return fmt.Errorf("rank %d pressure dof %d differs", r.ID(), i)
			}
		}
		return nil
	})
}

// refContainer writes a checkpoint container the way WriteRD and the NS writer did
// before they shared Write: datasets created by hand in the given order, the
// owned ids after them, the six metadata attributes on the first dataset.
func refContainer(t *testing.T, app string, names []string, fields [][]float64, owned string, ids []int64,
	steps int, tm float64, rank, nranks int) []byte {
	t.Helper()
	f := h5lite.New()
	for i, name := range names {
		if err := f.CreateF64(name, []int{len(ids)}, fields[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CreateI64(owned, []int{len(ids)}, ids); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"version": FormatVersion, "app": app,
		"steps": strconv.Itoa(steps), "time": strconv.FormatFloat(tm, 'x', -1, 64),
		"rank": strconv.Itoa(rank), "nranks": strconv.Itoa(nranks),
	} {
		if err := f.SetAttr(names[0], k, v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The neutral Write, driven by the layout table, produces the container bytes
// the two hand-written writers produced, and WriteRD is that Write.
func TestWriteMatchesHandWrittenContainers(t *testing.T) {
	rdSt := rd.State{StepsDone: 3, Time: 1.15, U1: []float64{1.5, -2.5, 3.25}, U2: []float64{0.5, 0.25, -0.125}}
	nsSt := nse.State{StepsDone: 2, Time: 0.008,
		U1: [3][]float64{{1.5, -2.5}, {0.5, 0.25}, {3, 4}},
		U2: [3][]float64{{-1, 1}, {2, -2}, {0.125, 8}},
		P:  []float64{9.5, -0.75}}
	cases := []struct {
		app    string
		snap   Snapshot
		want   []byte
		legacy func(w *bytes.Buffer) error // the solver-typed writer, if any
	}{
		{AppRD,
			Snapshot{StepsDone: 3, Time: 1.15, Fields: [][]float64{rdSt.U1, rdSt.U2}, Owned: []int{10, 11, 12}, Rank: 2, Width: 8},
			refContainer(t, AppRD, []string{"rd/u1", "rd/u2"}, [][]float64{rdSt.U1, rdSt.U2},
				"rd/owned", []int64{10, 11, 12}, 3, 1.15, 2, 8),
			func(w *bytes.Buffer) error { return WriteRD(w, rdSt, 2, 8, []int{10, 11, 12}) }},
		{AppNS,
			nsSnapshot(nsSt, 3, 8, []int{20, 21}),
			refContainer(t, AppNS, []string{"ns/u1_0", "ns/u2_0", "ns/u1_1", "ns/u2_1", "ns/u1_2", "ns/u2_2", "ns/p"},
				[][]float64{nsSt.U1[0], nsSt.U2[0], nsSt.U1[1], nsSt.U2[1], nsSt.U1[2], nsSt.U2[2], nsSt.P},
				"ns/owned", []int64{20, 21}, 2, 0.008, 3, 8),
			nil},
	}
	for _, c := range cases {
		var neutral, legacy bytes.Buffer
		if err := Write(&neutral, c.app, c.snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(neutral.Bytes(), c.want) {
			t.Errorf("%s: Write produced %d bytes that differ from the hand-written container's %d", c.app, neutral.Len(), len(c.want))
		}
		if c.legacy != nil {
			if err := c.legacy(&legacy); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(legacy.Bytes(), c.want) {
				t.Errorf("%s: the solver-typed writer differs from the hand-written container", c.app)
			}
		}
		got, err := Read(bytes.NewReader(c.want), c.app)
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		if got.StepsDone != c.snap.StepsDone || got.Time != c.snap.Time || got.Rank != c.snap.Rank ||
			got.Width != c.snap.Width || !slices.Equal(got.Owned, c.snap.Owned) || len(got.Fields) != len(c.snap.Fields) {
			t.Fatalf("%s: read back %+v", c.app, got)
		}
		for f := range got.Fields {
			if !slices.Equal(got.Fields[f], c.snap.Fields[f]) {
				t.Errorf("%s: field %d read back %v, want %v", c.app, f, got.Fields[f], c.snap.Fields[f])
			}
		}
	}
	if err := Write(&bytes.Buffer{}, "heat", cases[0].snap); err == nil {
		t.Error("unknown application accepted")
	}
	if err := Write(&bytes.Buffer{}, AppNS, cases[0].snap); err == nil {
		t.Error("two fields accepted for the seven-field NS layout")
	}
}

// The tag is optional only where containers predate it: a tag-less NS
// container never existed, so it is rejected (the RD half of the rule is in
// TestAppTagSeparatesSolvers).
func TestTagLessNSContainerRejected(t *testing.T) {
	f := h5lite.New()
	for _, name := range layouts[AppNS].fields {
		_ = f.CreateF64(name, []int{1}, []float64{1})
	}
	_ = f.CreateI64("ns/owned", []int{1}, []int64{0})
	for k, v := range map[string]string{"version": FormatVersion, "steps": "1", "time": "0x1p+00", "rank": "0", "nranks": "1"} {
		_ = f.SetAttr("ns/u1_0", k, v)
	}
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(b.Bytes()), AppNS); err == nil || !strings.Contains(err.Error(), "app tag") {
		t.Errorf("tag-less NS container: got %v, want an app-tag rejection", err)
	}
	_ = f.SetAttr("ns/u1_0", "app", AppNS)
	b.Reset()
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&b, AppNS); err != nil {
		t.Errorf("the same container with its tag: %v", err)
	}
}

// nsSnapshot lays an NS state out in AppNS's field order, as bench's solver
// table does.
func nsSnapshot(st nse.State, rank, width int, owned []int) Snapshot {
	return Snapshot{StepsDone: st.StepsDone, Time: st.Time, Owned: owned, Rank: rank, Width: width,
		Fields: [][]float64{st.U1[0], st.U2[0], st.U1[1], st.U2[1], st.U1[2], st.U2[2], st.P}}
}

// nsState is nsSnapshot's inverse.
func nsState(s Snapshot) nse.State {
	st := nse.State{StepsDone: s.StepsDone, Time: s.Time, P: s.Fields[6]}
	for d := 0; d < 3; d++ {
		st.U1[d], st.U2[d] = s.Fields[2*d], s.Fields[2*d+1]
	}
	return st
}

// writeAllocCeiling is what one Write of an RD snapshot into a buffer that
// already has room allocates, measured at 13 (1,144 B) with go1.24 on
// linux/amd64: the staging container's map, dataset records, name list and
// attribute map, one shared shape, and the hex time attribute. None of it
// grows with the snapshot: the fields and ids are encoded from where they
// lie, straight into the buffer.
const writeAllocCeiling = 13

// perRun returns the allocations and bytes one call of f makes, averaged
// over runs calls after a warm-up call, on one P as testing.AllocsPerRun
// measures.
func perRun(runs int, f func()) (allocs, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWriteAllocCeiling holds Write into a pre-grown bytes.Buffer to its
// fixed cost: at most writeAllocCeiling allocations for n = 8, and the same
// allocations and bytes for n = 8 as for n = 4096, so no copy of a field or
// of the ids, and no chunk, comes back.
func TestWriteAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	perWrite := func(n int) (allocs, size uint64) {
		u1, u2, ids := make([]float64, n), make([]float64, n), make([]int, n)
		for i := range ids {
			u1[i], u2[i], ids[i] = float64(i)/3, -float64(i), 1000+i
		}
		s := Snapshot{StepsDone: 7, Time: 0.35, Fields: [][]float64{u1, u2}, Owned: ids, Rank: 5, Width: 64}
		var buf bytes.Buffer
		buf.Grow(64 + 24*n + 256)
		return perRun(200, func() {
			buf.Reset()
			if err := Write(&buf, AppRD, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, smallBytes := perWrite(8)
	t.Logf("n = 8: %d allocs, %d B per Write", small, smallBytes)
	if small > writeAllocCeiling {
		t.Errorf("Write of an n = 8 RD snapshot makes %d allocations, ceiling %d", small, writeAllocCeiling)
	}
	if big, bigBytes := perWrite(4096); big != small || bigBytes != smallBytes {
		t.Errorf("Write allocates %d B in %d allocations at n = 4096, %d B in %d at n = 8: its cost grows with the snapshot",
			bigBytes, big, smallBytes, small)
	}
}
