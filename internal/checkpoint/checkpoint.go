// Package checkpoint persists and restores solver state through h5lite
// containers — the "automatic checkpointing" service the paper lists among
// the further conditioning an EC2 cluster image would need (§VI-D). Each
// rank writes its own container holding the solver's history vectors, its
// owned vertex ids, and enough metadata to reject mismatched restarts. The
// state travels as an app-neutral Snapshot; a per-application layout table
// names the datasets, so one Write/Read pair and one Redistribute serve
// both solvers.
package checkpoint

import (
	"fmt"
	"io"
	"strconv"

	"heterohpc/internal/h5lite"
	"heterohpc/internal/rd"
)

// FormatVersion guards against restoring state written by an incompatible
// layout.
const FormatVersion = "1"

// App tags identify which solver wrote a container, so a restart cannot
// feed Navier–Stokes state to the RD solver or vice versa. The tag is an
// attribute, not a version bump: containers written before the tag existed
// still restore.
const (
	AppRD = "rd"
	AppNS = "ns"
)

// Snapshot is one rank's restartable solver state with the application
// taken out: N equally long field vectors over the rank's owned vertices.
// What the fields mean is the layout's business (RD: u^{n-1}, u^{n-2}; NS:
// the two velocity history levels per component, then pressure).
//
// Fields alias whatever vectors they were built from — the solver's
// checkpoint buffers on the way out, the container's datasets on the way
// in — and are never copied by this package, so wrapping a solver state in
// a Snapshot costs a slice header per field. A Snapshot built from a
// solver's Checkpoint callback therefore inherits that callback's retention
// contract: serialise it before returning, do not keep it.
type Snapshot struct {
	// StepsDone counts completed time steps; Time is the PDE time reached.
	StepsDone int
	Time      float64
	// Fields are the state vectors in layout order, one value per owned
	// vertex each.
	Fields [][]float64
	// Owned are the global vertex ids the values belong to.
	Owned []int
	// Rank and Width are the writing rank and its world size.
	Rank, Width int
}

// layout is one application's row of the dataset-name table.
type layout struct {
	// fields names the dataset of each Snapshot field, in container order;
	// the first one carries the metadata attributes.
	fields []string
	owned  string
	// tagOptional accepts containers without an app attribute (RD
	// containers predate the tag and are RD by construction).
	tagOptional bool
	// redistBytes is the memory traffic per vertex Redistribute charges
	// for bucketing a held fragment.
	redistBytes float64
}

var layouts = map[string]*layout{
	AppRD: {fields: []string{"rd/u1", "rd/u2"}, owned: "rd/owned", tagOptional: true, redistBytes: 40},
	AppNS: {fields: []string{"ns/u1_0", "ns/u2_0", "ns/u1_1", "ns/u2_1", "ns/u1_2", "ns/u2_2", "ns/p"},
		owned: "ns/owned", redistBytes: 56},
}

func layoutOf(app string) (*layout, error) {
	l, ok := layouts[app]
	if !ok {
		return nil, fmt.Errorf("checkpoint: unknown application %q (want %s or %s)", app, AppRD, AppNS)
	}
	return l, nil
}

// Write serialises one rank's snapshot into app's container layout.
func Write(w io.Writer, app string, s Snapshot) error {
	l, err := layoutOf(app)
	if err != nil {
		return err
	}
	if len(s.Fields) != len(l.fields) {
		return fmt.Errorf("checkpoint: %d state vectors for the %d-field %s layout", len(s.Fields), len(l.fields), app)
	}
	n := len(s.Owned)
	f := h5lite.New()
	for i, name := range l.fields {
		if len(s.Fields[i]) != n {
			return fmt.Errorf("checkpoint: inconsistent state vectors: %s has %d values for %d owned ids", name, len(s.Fields[i]), n)
		}
		if err := f.CreateF64(name, []int{n}, s.Fields[i]); err != nil {
			return err
		}
	}
	ids := make([]int64, n)
	for i, g := range s.Owned {
		ids[i] = int64(g)
	}
	if err := f.CreateI64(l.owned, []int{n}, ids); err != nil {
		return err
	}
	for _, kv := range [][2]string{
		{"version", FormatVersion},
		{"app", app},
		{"steps", strconv.Itoa(s.StepsDone)},
		{"time", strconv.FormatFloat(s.Time, 'x', -1, 64)}, // hex: exact
		{"rank", strconv.Itoa(s.Rank)},
		{"nranks", strconv.Itoa(s.Width)},
	} {
		if err := f.SetAttr(l.fields[0], kv[0], kv[1]); err != nil {
			return err
		}
	}
	// A memory writer (the snapshot stores and mirrors write to a
	// bytes.Buffer) is sized once, exactly, instead of regrowing as it fills.
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(f.EncodedLen())
	}
	_, err = f.WriteTo(w)
	return err
}

// Read restores one rank's snapshot from a container in app's layout,
// rejecting containers of the other application, of another format version,
// or with missing or mismatched datasets.
func Read(r io.Reader, app string) (Snapshot, error) {
	var s Snapshot
	l, err := layoutOf(app)
	if err != nil {
		return s, err
	}
	f, err := h5lite.ReadFrom(r)
	if err != nil {
		return s, err
	}
	head, ok := f.Get(l.fields[0])
	if !ok {
		return s, fmt.Errorf("checkpoint: not an %s checkpoint (%s missing)", app, l.fields[0])
	}
	if v := head.Attrs["version"]; v != FormatVersion {
		return s, fmt.Errorf("checkpoint: format version %q, want %q", v, FormatVersion)
	}
	if tag, ok := head.Attrs["app"]; (ok && tag != app) || (!ok && !l.tagOptional) {
		return s, fmt.Errorf("checkpoint: app tag %q, want %q", tag, app)
	}
	n := len(head.F64)
	s.Fields = make([][]float64, 0, len(l.fields))
	for _, name := range l.fields {
		d, ok := f.Get(name)
		if !ok || len(d.F64) != n {
			return s, fmt.Errorf("checkpoint: %s missing or mismatched", name)
		}
		s.Fields = append(s.Fields, d.F64)
	}
	idsDS, ok := f.Get(l.owned)
	if !ok || len(idsDS.I64) != n {
		return s, fmt.Errorf("checkpoint: %s missing or mismatched", l.owned)
	}
	for _, a := range []struct {
		key string
		dst *int
	}{{"steps", &s.StepsDone}, {"rank", &s.Rank}, {"nranks", &s.Width}} {
		if *a.dst, err = strconv.Atoi(head.Attrs[a.key]); err != nil {
			return s, fmt.Errorf("checkpoint: bad %s attribute: %w", a.key, err)
		}
	}
	if s.Time, err = strconv.ParseFloat(head.Attrs["time"], 64); err != nil {
		return s, fmt.Errorf("checkpoint: bad time attribute: %w", err)
	}
	s.Owned = make([]int, n)
	for i, g := range idsDS.I64 {
		s.Owned[i] = int(g)
	}
	return s, nil
}

// WriteRD serialises one rank's RD solver state. ownedIDs are the rank's
// owned global vertex ids (for integrity checking on restore).
func WriteRD(w io.Writer, st rd.State, rank, nranks int, ownedIDs []int) error {
	return Write(w, AppRD, Snapshot{StepsDone: st.StepsDone, Time: st.Time,
		Fields: [][]float64{st.U1, st.U2}, Owned: ownedIDs, Rank: rank, Width: nranks})
}

// ReadRD restores one rank's RD solver state, returning the state, the rank
// and world size it was written from, and the owned vertex ids.
func ReadRD(r io.Reader) (st rd.State, rank, nranks int, ownedIDs []int, err error) {
	s, err := Read(r, AppRD)
	if err != nil {
		return st, 0, 0, nil, err
	}
	st = rd.State{StepsDone: s.StepsDone, Time: s.Time, U1: s.Fields[0], U2: s.Fields[1]}
	return st, s.Rank, s.Width, s.Owned, nil
}
