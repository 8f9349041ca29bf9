package h5lite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heterohpc/internal/stats"
)

// refWriteTo is WriteTo as it was: one reflective binary.Write per field and
// per element. It is the byte oracle for the chunked encoder.
func refWriteTo(f *File, w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if _, err := cw.Write([]byte(Magic)); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(f.order))); err != nil {
		return cw.n, err
	}
	for _, name := range f.order {
		d := f.ds[name]
		if err := refWriteString(cw, name); err != nil {
			return cw.n, err
		}
		var dtype byte = dtypeF64
		if d.I64 != nil {
			dtype = dtypeI64
		}
		if err := binary.Write(cw, binary.LittleEndian, dtype); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(d.Dims))); err != nil {
			return cw.n, err
		}
		for _, dim := range d.Dims {
			if err := binary.Write(cw, binary.LittleEndian, uint64(dim)); err != nil {
				return cw.n, err
			}
		}
		// Attributes, sorted for deterministic output.
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(keys))); err != nil {
			return cw.n, err
		}
		for _, k := range keys {
			if err := refWriteString(cw, k); err != nil {
				return cw.n, err
			}
			if err := refWriteString(cw, d.Attrs[k]); err != nil {
				return cw.n, err
			}
		}
		switch dtype {
		case dtypeF64:
			for _, v := range d.F64 {
				if err := binary.Write(cw, binary.LittleEndian, math.Float64bits(v)); err != nil {
					return cw.n, err
				}
			}
		case dtypeI64:
			for _, v := range d.I64 {
				if err := binary.Write(cw, binary.LittleEndian, uint64(v)); err != nil {
					return cw.n, err
				}
			}
		}
	}
	return cw.n, nil
}

// refReadFrom is ReadFrom as it was: one reflective binary.Read per field
// and per element. It is the oracle for the chunked decoder's results and,
// on damaged input, its error texts.
func refReadFrom(r io.Reader) (*File, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("h5lite: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("h5lite: reading count: %w", err)
	}
	const maxDatasets = 1 << 20
	if count > maxDatasets {
		return nil, fmt.Errorf("%w: implausible dataset count %d", ErrCorrupt, count)
	}
	f := New()
	for i := uint32(0); i < count; i++ {
		name, err := refReadString(r)
		if err != nil {
			return nil, fmt.Errorf("h5lite: dataset %d name: %w", i, err)
		}
		var dtype byte
		if err := binary.Read(r, binary.LittleEndian, &dtype); err != nil {
			return nil, err
		}
		var ndims uint32
		if err := binary.Read(r, binary.LittleEndian, &ndims); err != nil {
			return nil, err
		}
		if ndims > 16 {
			return nil, fmt.Errorf("%w: %q has %d dimensions", ErrCorrupt, name, ndims)
		}
		// The element count is accumulated in uint64 against an explicit
		// ceiling, so hostile dims can neither overflow int nor describe an
		// allocation the host could not satisfy.
		const maxElems = 1 << 40
		dims := make([]int, ndims)
		elems := uint64(1)
		for j := range dims {
			var d uint64
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return nil, err
			}
			if d > maxElems {
				return nil, fmt.Errorf("%w: %q dimension %d is %d", ErrCorrupt, name, j, d)
			}
			dims[j] = int(d)
			if d != 0 {
				if elems > maxElems/d {
					return nil, fmt.Errorf("%w: %q shape %v overflows the element limit", ErrCorrupt, name, dims[:j+1])
				}
				elems *= d
			} else {
				elems = 0
			}
		}
		n := int(elems)
		var nattrs uint32
		if err := binary.Read(r, binary.LittleEndian, &nattrs); err != nil {
			return nil, err
		}
		if nattrs > 1<<16 {
			return nil, fmt.Errorf("%w: %q has %d attributes", ErrCorrupt, name, nattrs)
		}
		// Attributes stay in wire order in a pair slice: replaying them
		// into SetAttr through a map would apply them (and surface any
		// error) in random iteration order (heterolint:maporder).
		type kv struct{ k, v string }
		attrs := make([]kv, 0, min(int(nattrs), 64))
		for j := uint32(0); j < nattrs; j++ {
			k, err := refReadString(r)
			if err != nil {
				return nil, err
			}
			v, err := refReadString(r)
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, kv{k, v})
		}
		// The data buffer grows with the bytes actually read (bounded
		// initial capacity), so a header claiming a huge shape over a tiny
		// stream fails with an io error instead of allocating n elements
		// up front.
		const chunkElems = 1 << 16
		initCap := n
		if initCap > chunkElems {
			initCap = chunkElems
		}
		switch dtype {
		case dtypeF64:
			data := make([]float64, 0, initCap)
			for j := 0; j < n; j++ {
				var bits uint64
				if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
					return nil, fmt.Errorf("h5lite: %q data: %w", name, err)
				}
				data = append(data, math.Float64frombits(bits))
			}
			if err := f.CreateF64(name, dims, data); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		case dtypeI64:
			data := make([]int64, 0, initCap)
			for j := 0; j < n; j++ {
				var bits uint64
				if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
					return nil, fmt.Errorf("h5lite: %q data: %w", name, err)
				}
				data = append(data, int64(bits))
			}
			if err := f.CreateI64(name, dims, data); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		default:
			return nil, fmt.Errorf("%w: %q has unknown dtype %d", ErrCorrupt, name, dtype)
		}
		for _, a := range attrs {
			if err := f.SetAttr(name, a.k, a.v); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func refWriteString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func refReadString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: implausible string length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// oracleContainer builds a seeded container whose fields straddle the
// encoder's chunk in every way: attribute values longer than a chunk, datasets of zero, one and several chunks of elements, shapes with
// zero extents.
func oracleContainer(t *testing.T, seed uint64) *File {
	t.Helper()
	rng := stats.NewRNG(seed)
	f := New()
	sizes := []int{0, 1, chunkBytes/8 - 1, chunkBytes / 8, chunkBytes/8 + 1, 3*chunkBytes/8 + 5, rng.Intn(2000)}
	for i, n := range sizes {
		name := fmt.Sprintf("g%d/n%s", i, strings.Repeat("n", rng.Intn(40)))
		var err error
		if i%2 == 0 {
			data := make([]float64, n)
			for j := range data {
				data[j] = rng.Range(-1e9, 1e9)
			}
			err = f.CreateF64(name, []int{n}, data)
		} else {
			data := make([]int64, n)
			for j := range data {
				data[j] = int64(rng.Intn(1<<40)) - 1<<39
			}
			err = f.CreateI64(name, []int{1, n}, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < rng.Intn(4); a++ {
			if err := f.SetAttr(name, fmt.Sprintf("k%d", a), strings.Repeat("v", rng.Intn(2*chunkBytes))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

// TestCodecMatchesReflectionReference holds the chunked encoder and decoder
// to the reflective ones they replaced: the same bytes and count (and
// EncodedLen naming that count beforehand), the same container read back,
// and on a stream cut anywhere — inside a header field, between two
// elements, inside one, on either side of a chunk boundary — the same error
// text.
func TestCodecMatchesReflectionReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		f := oracleContainer(t, seed)
		var want, got bytes.Buffer
		wantN, err := refWriteTo(f, &want)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := f.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: wrote %d bytes, reference %d; equal = %v", seed, gotN, wantN, bytes.Equal(got.Bytes(), want.Bytes()))
		}
		if f.EncodedLen() != want.Len() {
			t.Fatalf("seed %d: EncodedLen %d, container has %d bytes", seed, f.EncodedLen(), want.Len())
		}
		full := want.Bytes()
		wantF, err := refReadFrom(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := ReadFrom(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("seed %d: container read back differs from the reference's", seed)
		}
		// A trailing byte must be left unread: the decoder asks for what the
		// headers describe and no more.
		tail := bytes.NewReader(append(append([]byte(nil), full...), 0xEE))
		if _, err := ReadFrom(tail); err != nil || tail.Len() != 1 {
			t.Fatalf("seed %d: read past the container: %d bytes left, err %v", seed, tail.Len(), err)
		}
		requireSameTruncationErrors(t, full, 97) // a stride coprime to the element size
	}
	// Every cut point of a container small enough for that, its first
	// dataset one chunk and three elements long.
	f := New()
	if err := f.CreateF64("a/u", []int{chunkBytes/8 + 3}, make([]float64, chunkBytes/8+3)); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAttr("a/u", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateI64("ids", []int{5}, []int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	requireSameTruncationErrors(t, buf.Bytes(), 1)
}

// requireSameTruncationErrors cuts full at every step-th byte and requires
// ReadFrom to fail with the reference reader's error text.
func requireSameTruncationErrors(t *testing.T, full []byte, step int) {
	t.Helper()
	for cut := 0; cut < len(full); cut += step {
		_, wantErr := refReadFrom(bytes.NewReader(full[:cut]))
		_, gotErr := ReadFrom(bytes.NewReader(full[:cut]))
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("cut at %d of %d: error %v, reference %v", cut, len(full), gotErr, wantErr)
		}
	}
}

// failAfter accepts n bytes and then fails every Write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		m := w.n
		w.n = 0
		return m, fmt.Errorf("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToReportsBytesAccepted: with a writer that fails part-way the
// count returned is what the writer took, and the error is the writer's.
func TestWriteToReportsBytesAccepted(t *testing.T) {
	f := oracleContainer(t, 9)
	total := f.EncodedLen()
	for _, allow := range []int{0, 3, chunkBytes - 1, chunkBytes, chunkBytes + 1, total - 1} {
		n, err := f.WriteTo(&failAfter{n: allow})
		if err == nil || err.Error() != "disk full" || n != int64(allow) {
			t.Errorf("writer failing after %d bytes: WriteTo returned %d, %v", allow, n, err)
		}
	}
	if n, err := f.WriteTo(&failAfter{n: total}); err != nil || n != int64(total) {
		t.Errorf("writer with exact room: WriteTo returned %d, %v", n, err)
	}
}
