package h5lite

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"heterohpc/internal/stats"
)

func TestRoundTrip(t *testing.T) {
	f := New()
	if err := f.CreateF64("fields/u", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateI64("mesh/ids", []int{4}, []int64{10, -20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAttr("fields/u", "time", "1.25"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := g.Get("fields/u")
	if !ok {
		t.Fatal("fields/u missing after round trip")
	}
	if len(u.Dims) != 2 || u.Dims[0] != 2 || u.Dims[1] != 3 {
		t.Fatalf("dims %v", u.Dims)
	}
	if u.F64[5] != 6 {
		t.Fatalf("data %v", u.F64)
	}
	if u.Attrs["time"] != "1.25" {
		t.Fatalf("attrs %v", u.Attrs)
	}
	ids, _ := g.Get("mesh/ids")
	if ids.I64[1] != -20 {
		t.Fatalf("ids %v", ids.I64)
	}
}

func TestExactFloatRoundTrip(t *testing.T) {
	// Checkpoint/restart needs bit-exact floats, including specials.
	vals := []float64{0, math.Copysign(0, -1), 1e-308, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.Pi}
	f := New()
	if err := f.CreateF64("x", []int{len(vals)}, vals); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := g.Get("x")
	for i, v := range vals {
		if math.Float64bits(got.F64[i]) != math.Float64bits(v) {
			t.Fatalf("element %d: %v != %v", i, got.F64[i], v)
		}
	}
	// NaN separately (NaN != NaN).
	f2 := New()
	if err := f2.CreateF64("nan", []int{1}, []float64{math.NaN()}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := f2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := g2.Get("nan")
	if !math.IsNaN(d.F64[0]) {
		t.Fatal("NaN not preserved")
	}
}

func TestValidation(t *testing.T) {
	f := New()
	if err := f.CreateF64("", nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := f.CreateF64("/abs", nil, nil); err == nil {
		t.Error("leading slash accepted")
	}
	if err := f.CreateF64("x", []int{2}, []float64{1}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := f.CreateF64("ok", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateF64("ok", []int{1}, []float64{1}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := f.CreateI64("bad", []int{-1}, nil); err == nil {
		t.Error("negative dim accepted")
	}
	if err := f.SetAttr("ghost", "k", "v"); err == nil {
		t.Error("attr on missing dataset accepted")
	}
	// Failed creates must not leave residue.
	if _, ok := f.Get("x"); ok {
		t.Error("failed create left dataset behind")
	}
}

// WriteTo keeps creation order, and a round trip reproduces it: a
// checkpoint's bytes depend on the order its writer created datasets in,
// never on map iteration.
func TestWriteToKeepsCreationOrder(t *testing.T) {
	f := New()
	names := []string{"z", "a/y", "m", "a"}
	for i, n := range names {
		if err := f.CreateI64(n, []int{1}, []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(g.order) != fmt.Sprint(names) {
		t.Fatalf("order after round trip %v, want %v", g.order, names)
	}
}

// A create that fails its shape check leaves no entry behind in the write
// order either, so the next dataset encodes where it would have anyway.
func TestFailedCreateLeavesNoOrderEntry(t *testing.T) {
	f := New()
	if err := f.CreateF64("a", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateF64("bad", []int{2}, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := f.CreateI64("bad64", []int{3}, nil); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := f.CreateF64("b", []int{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(f.order) != "[a b]" {
		t.Fatalf("order %v, want [a b]", f.order)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(f.EncodedLen()) {
		t.Fatalf("wrote %d bytes, EncodedLen says %d", n, f.EncodedLen())
	}
}

// Attributes are encoded sorted by key, so the order SetAttr ran in does
// not reach the bytes.
func TestAttrInsertionOrderDoesNotChangeEncoding(t *testing.T) {
	encode := func(keys []string) []byte {
		f := New()
		if err := f.CreateF64("u", []int{2}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := f.SetAttr("u", k, "v"+k); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := encode([]string{"time", "app", "step"})
	b := encode([]string{"step", "time", "app"})
	if !bytes.Equal(a, b) {
		t.Fatal("attribute insertion order changed the encoding")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("H5L1"), // truncated count
		append([]byte("H5L1"), 0xff, 0xff, 0xff, 0xff), // implausible count
	}
	for i, c := range cases {
		if _, err := ReadFrom(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ds) != 0 {
		t.Fatal("empty file has datasets")
	}
}

// Property: arbitrary dataset collections survive a round trip intact.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed uint64, nds uint8) bool {
		rng := stats.NewRNG(seed)
		f := New()
		want := map[string][]float64{}
		for i := 0; i < int(nds%8)+1; i++ {
			name := "g/d" + string(rune('a'+i))
			n := rng.Intn(50)
			data := make([]float64, n)
			for j := range data {
				data[j] = rng.Normal(0, 100)
			}
			if err := f.CreateF64(name, []int{n}, data); err != nil {
				return false
			}
			want[name] = data
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			return false
		}
		g, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		for name, data := range want {
			d, ok := g.Get(name)
			if !ok || len(d.F64) != len(data) {
				return false
			}
			for j := range data {
				if d.F64[j] != data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWrittenSizeReported(t *testing.T) {
	f := New()
	if err := f.CreateF64("x", []int{3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	if !strings.HasPrefix(buf.String(), Magic) {
		t.Fatal("missing magic")
	}
}

type failWriter struct{ allow int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.allow <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	n := len(p)
	if n > f.allow {
		n = f.allow
	}
	f.allow -= n
	if n < len(p) {
		return n, fmt.Errorf("disk full")
	}
	return n, nil
}

// WriteTo must surface writer errors wherever they strike.
func TestWriteToPropagatesWriterErrors(t *testing.T) {
	f := New()
	if err := f.CreateF64("g/x", []int{4}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAttr("g/x", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateI64("g/y", []int{2}, []int64{5, 6}); err != nil {
		t.Fatal(err)
	}
	// Find the full size, then fail at every prefix length.
	var ok bytes.Buffer
	total, err := f.WriteTo(&ok)
	if err != nil {
		t.Fatal(err)
	}
	for allow := 0; allow < int(total); allow += 7 {
		if _, err := f.WriteTo(&failWriter{allow: allow}); err == nil {
			t.Fatalf("write with %d allowed bytes reported no error", allow)
		}
	}
}

// Truncated streams must be rejected at every cut point.
func TestReadFromRejectsTruncation(t *testing.T) {
	f := New()
	_ = f.CreateF64("a", []int{3}, []float64{1, 2, 3})
	_ = f.SetAttr("a", "k", "v")
	_ = f.CreateI64("b", []int{1}, []int64{9})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 5 {
		if _, err := ReadFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

// TestWriteToInPlaceMatchesReference: a bytes.Buffer with room for the whole
// container is encoded into in place, behind what it already holds, with
// the reference encoder's bytes and count, and never regrows; one byte short
// of room, WriteTo falls back to chunks, the buffer regrows, and the bytes
// are the same. A CreateInt dataset is
// written as the CreateI64 dataset of the same values.
func TestWriteToInPlaceMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		f := oracleContainer(t, seed)
		var want bytes.Buffer
		if _, err := refWriteTo(f, &want); err != nil {
			t.Fatal(err)
		}
		for _, room := range []int{f.EncodedLen(), f.EncodedLen() - 1} {
			got := bytes.NewBuffer(append(make([]byte, 0, 3+room), "abc"...))
			before := &got.AvailableBuffer()[:1][0]
			n, err := f.WriteTo(got)
			if err != nil || n != int64(want.Len()) || !bytes.Equal(got.Bytes()[3:], want.Bytes()) {
				t.Fatalf("seed %d, room %d: wrote %d bytes (%v), reference %d; equal = %v",
					seed, room, n, err, want.Len(), bytes.Equal(got.Bytes()[3:], want.Bytes()))
			}
			if kept := &got.Bytes()[3] == before; kept != (room == f.EncodedLen()) {
				t.Fatalf("seed %d, room %d: the container lies in the buffer's first room = %v", seed, room, kept)
			}
		}
	}
	ids := []int{7, -1, 1 << 40}
	f, g := New(), New()
	if err := f.CreateInt("ids", []int{1, 3}, ids); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateI64("ids", []int{1, 3}, []int64{7, -1, 1 << 40}); err != nil {
		t.Fatal(err)
	}
	var fb, gb bytes.Buffer
	if _, err := f.WriteTo(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := refWriteTo(g, &gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), gb.Bytes()) || f.EncodedLen() != gb.Len() {
		t.Fatalf("CreateInt container: %d bytes (EncodedLen %d), CreateI64 reference %d; equal = %v",
			fb.Len(), f.EncodedLen(), gb.Len(), bytes.Equal(fb.Bytes(), gb.Bytes()))
	}
	if err := f.CreateInt("bad", []int{2}, ids); err == nil {
		t.Fatal("CreateInt accepted 3 ids for shape [2]")
	}
}
