package h5lite

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// validContainerBytes serialises a small representative container: both
// dtypes, a multi-dimensional shape, attributes, and a group hierarchy.
func validContainerBytes(tb testing.TB) []byte {
	tb.Helper()
	f := New()
	if err := f.CreateF64("fields/u", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		tb.Fatal(err)
	}
	if err := f.CreateI64("mesh/ids", []int{4}, []int64{7, -1, 0, 9}); err != nil {
		tb.Fatal(err)
	}
	if err := f.SetAttr("fields/u", "time", "0.125"); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrom asserts the reader's contract on arbitrary input: it never
// panics and never over-allocates; every rejection is a typed error
// (ErrCorrupt for hostile bytes, an io error for truncation); and every
// accepted container round-trips through WriteTo/ReadFrom.
func FuzzReadFrom(f *testing.F) {
	valid := validContainerBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                 // truncated mid-record
	f.Add(valid[:3])                            // truncated magic
	f.Add(append([]byte("XXXX"), valid[4:]...)) // wrong magic
	f.Add([]byte{})
	// A header that claims 2^48 elements over an empty stream: must fail
	// with a typed error instead of allocating.
	huge := []byte("H5L1")
	huge = append(huge, 1, 0, 0, 0)             // count = 1
	huge = append(huge, 1, 0, 0, 0, 'u')        // name "u"
	huge = append(huge, 0)                      // dtypeF64
	huge = append(huge, 2, 0, 0, 0)             // ndims = 2
	huge = append(huge, 0, 0, 0, 1, 0, 0, 0, 0) // dim 2^24
	huge = append(huge, 0, 0, 0, 1, 0, 0, 0, 0) // dim 2^24
	huge = append(huge, 0, 0, 0, 0)             // nattrs = 0
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := ReadFrom(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped rejection of %d bytes: %v", len(b), err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := file.WriteTo(&buf); err != nil {
			t.Fatalf("accepted container does not serialise: %v", err)
		}
		re, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if len(re.ds) != len(file.ds) {
			t.Fatalf("round-trip has %d datasets, want %d", len(re.ds), len(file.ds))
		}
		for name := range file.ds {
			a, _ := file.Get(name)
			b, ok := re.Get(name)
			if !ok || a.Len() != b.Len() || len(a.Attrs) != len(b.Attrs) {
				t.Fatalf("dataset %q did not round-trip", name)
			}
		}
	})
}

func TestReadFromHardening(t *testing.T) {
	valid := validContainerBytes(t)

	t.Run("truncations are io errors", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			_, err := ReadFrom(bytes.NewReader(valid[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})

	t.Run("overflowing shape is corrupt", func(t *testing.T) {
		f := New()
		if err := f.CreateF64("u", []int{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		// Patch the single 1×uint64 dim (right after name and dtype+ndims)
		// to 2^63: the element-limit check must reject it as corrupt.
		dimOff := 4 + 4 + (4 + 1) + 1 + 4
		for i := 0; i < 8; i++ {
			b[dimOff+i] = 0
		}
		b[dimOff+7] = 0x80
		_, err := ReadFrom(bytes.NewReader(b))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("2^63-element shape: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad magic is corrupt", func(t *testing.T) {
		b := append([]byte("NOPE"), valid[4:]...)
		if _, err := ReadFrom(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("unknown dtype is corrupt", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[4+4+4+len("fields/u")] = 9 // dtype byte of the first record
		if _, err := ReadFrom(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}
