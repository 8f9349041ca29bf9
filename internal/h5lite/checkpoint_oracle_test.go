package h5lite_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/h5lite"
)

// stagedLayouts are the dataset names of checkpoint's two layouts: the
// fields in container order, then the owned ids.
var stagedLayouts = []struct {
	app    string
	fields []string
	owned  string
}{
	{checkpoint.AppRD, []string{"rd/u1", "rd/u2"}, "rd/owned"},
	{checkpoint.AppNS, []string{"ns/u1_0", "ns/u2_0", "ns/u1_1", "ns/u2_1", "ns/u1_2", "ns/u2_2", "ns/p"}, "ns/owned"},
}

// stagedBytes is what checkpoint.Write wrote before it encoded from the
// snapshot's own vectors: a container staged by copying each field, and
// the owned ids converted to a fresh []int64, into datasets of their own,
// the six metadata attributes on the first field, serialised by the
// reflective reference encoder.
func stagedBytes(t *testing.T, app string, fields []string, owned string, s checkpoint.Snapshot) []byte {
	t.Helper()
	n := len(s.Owned)
	f := h5lite.New()
	for i, name := range fields {
		if err := f.CreateF64(name, []int{n}, append([]float64(nil), s.Fields[i]...)); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]int64, n)
	for i, g := range s.Owned {
		ids[i] = int64(g)
	}
	if err := f.CreateI64(owned, []int{n}, ids); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{
		{"version", checkpoint.FormatVersion},
		{"app", app},
		{"steps", strconv.Itoa(s.StepsDone)},
		{"time", strconv.FormatFloat(s.Time, 'x', -1, 64)},
		{"rank", strconv.Itoa(s.Rank)},
		{"nranks", strconv.Itoa(s.Width)},
	} {
		if err := f.SetAttr(fields[0], kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := h5lite.RefWriteTo(f, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oddValues are field values whose bits a lossy path would change: both
// zeros, NaNs with other payloads and sign, both infinities, the smallest
// subnormal and the largest finite value.
var oddValues = []float64{
	math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, math.MaxFloat64, -1.0 / 3,
}

// oddIDs are owned ids at and beyond the ends of the int range a mesh uses.
var oddIDs = []int{-1, math.MinInt64, math.MaxInt64, 0, 1 << 40, -(1 << 33) - 7}

// plainWriter hides every method of its writer but Write: no Grow, no
// AvailableBuffer.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestWriteMatchesStagedReference holds checkpoint.Write, which encodes
// from the snapshot's own vectors, to the staged container it replaced,
// byte for byte, in both layouts: with no, one, an odd number and more
// than a chunk of owned vertices; fields holding -0, NaNs, infinities and
// subnormals; negative and large ids; into a fresh bytes.Buffer (sized by
// Write, encoded in place), behind bytes already in one, into a bufio.Writer
// (in place in its buffer where the container fits, in chunks where it
// does not) and into a plain writer (in chunks). Read gives every bit back.
func TestWriteMatchesStagedReference(t *testing.T) {
	for _, l := range stagedLayouts {
		for _, n := range []int{0, 1, 7, 517} {
			s := checkpoint.Snapshot{StepsDone: 12345 + n, Time: 0.375 * float64(n+1), Rank: 3 + n, Width: 1000,
				Fields: make([][]float64, len(l.fields)), Owned: make([]int, n)}
			for i := range s.Owned {
				s.Owned[i] = oddIDs[i%len(oddIDs)] ^ (i / len(oddIDs))
			}
			for f := range s.Fields {
				s.Fields[f] = make([]float64, n)
				for i := range s.Fields[f] {
					s.Fields[f][i] = oddValues[(i+f)%len(oddValues)]
					if i >= len(oddValues) {
						s.Fields[f][i] *= float64(i)
					}
				}
			}
			want := stagedBytes(t, l.app, l.fields, l.owned, s)
			name := fmt.Sprintf("%s n=%d", l.app, n)

			var fresh bytes.Buffer
			if err := checkpoint.Write(&fresh, l.app, s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh.Bytes(), want) {
				t.Fatalf("%s: Write into a fresh buffer gave %d bytes, the staged container %d; equal = false", name, fresh.Len(), len(want))
			}
			behind := bytes.NewBufferString("prefix")
			if err := checkpoint.Write(behind, l.app, s); err != nil {
				t.Fatal(err)
			}
			if got := behind.Bytes(); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
				t.Fatalf("%s: Write behind existing bytes differs from the staged container", name)
			}
			var viaBufio bytes.Buffer
			bw := bufio.NewWriterSize(&viaBufio, 4096)
			if err := checkpoint.Write(bw, l.app, s); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaBufio.Bytes(), want) {
				t.Fatalf("%s: Write through a bufio.Writer differs from the staged container", name)
			}
			var chunked bytes.Buffer
			if err := checkpoint.Write(plainWriter{&chunked}, l.app, s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chunked.Bytes(), want) {
				t.Fatalf("%s: Write to a plain writer differs from the staged container", name)
			}

			got, err := checkpoint.Read(bytes.NewReader(want), l.app)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.StepsDone != s.StepsDone || got.Time != s.Time || got.Rank != s.Rank || got.Width != s.Width ||
				len(got.Owned) != n || len(got.Fields) != len(s.Fields) {
				t.Fatalf("%s: read back %+v", name, got)
			}
			for i, g := range got.Owned {
				if g != s.Owned[i] {
					t.Fatalf("%s: owned[%d] read back %d, want %d", name, i, g, s.Owned[i])
				}
			}
			for f := range got.Fields {
				for i, v := range got.Fields[f] {
					if math.Float64bits(v) != math.Float64bits(s.Fields[f][i]) {
						t.Fatalf("%s: field %d[%d] read back %x, want %x", name, f, i, math.Float64bits(v), math.Float64bits(s.Fields[f][i]))
					}
				}
			}
		}
	}
}
