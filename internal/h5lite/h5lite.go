// Package h5lite is a minimal hierarchical scientific data container — the
// role HDF5 1.8.7 plays in the paper's stack ("for the storage of large
// data on file", §IV-D). It stores named n-dimensional float64/int64
// datasets with string attributes under slash-separated group paths, in a
// self-describing little-endian binary format.
//
// The format is intentionally simple (a sequential record stream with a
// magic header and per-record checks), but preserves the properties the
// applications rely on: hierarchical names, shape metadata, attributes,
// and exact round-tripping of float64 data for checkpoint/restart.
package h5lite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Magic identifies an h5lite stream (version 1).
const Magic = "H5L1"

// ErrCorrupt is wrapped by every ReadFrom error caused by semantically
// invalid input — bad magic, implausible counts or shapes, unknown dtypes,
// invalid or duplicate names. Truncated input surfaces as io.EOF /
// io.ErrUnexpectedEOF instead, so callers can distinguish "short file"
// from "hostile file". errors.Is(err, ErrCorrupt) tests for the latter.
var ErrCorrupt = errors.New("h5lite: corrupt container")

const (
	dtypeF64 = 0
	dtypeI64 = 1
)

// Dataset is one named n-dimensional array with attributes. Exactly one of
// F64/I64 is non-nil, with length equal to the product of Dims.
type Dataset struct {
	Name  string
	Dims  []int
	F64   []float64
	I64   []int64
	Attrs map[string]string
}

// Len returns the element count implied by Dims.
func (d *Dataset) Len() int {
	n := 1
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// File is an in-memory h5lite container.
type File struct {
	ds    map[string]*Dataset
	order []string
}

// New returns an empty container.
func New() *File {
	return &File{ds: map[string]*Dataset{}}
}

func validName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") {
		return fmt.Errorf("h5lite: invalid dataset name %q", name)
	}
	return nil
}

func (f *File) create(name string, dims []int) (*Dataset, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if _, dup := f.ds[name]; dup {
		return nil, fmt.Errorf("h5lite: dataset %q exists", name)
	}
	n := 1
	for _, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("h5lite: negative dimension in %v", dims)
		}
		n *= d
	}
	d := &Dataset{Name: name, Dims: append([]int(nil), dims...), Attrs: map[string]string{}}
	f.ds[name] = d
	f.order = append(f.order, name)
	return d, nil
}

// CreateF64 adds a float64 dataset; len(data) must equal the product of
// dims. The data is copied.
func (f *File) CreateF64(name string, dims []int, data []float64) error {
	d, err := f.create(name, dims)
	if err != nil {
		return err
	}
	if len(data) != d.Len() {
		delete(f.ds, name)
		f.order = f.order[:len(f.order)-1]
		return fmt.Errorf("h5lite: %q has %d elements for shape %v", name, len(data), dims)
	}
	d.F64 = append([]float64(nil), data...)
	return nil
}

// CreateI64 adds an int64 dataset.
func (f *File) CreateI64(name string, dims []int, data []int64) error {
	d, err := f.create(name, dims)
	if err != nil {
		return err
	}
	if len(data) != d.Len() {
		delete(f.ds, name)
		f.order = f.order[:len(f.order)-1]
		return fmt.Errorf("h5lite: %q has %d elements for shape %v", name, len(data), dims)
	}
	d.I64 = append([]int64(nil), data...)
	return nil
}

// SetAttr attaches a string attribute to an existing dataset.
func (f *File) SetAttr(name, key, value string) error {
	d, ok := f.ds[name]
	if !ok {
		return fmt.Errorf("h5lite: no dataset %q", name)
	}
	d.Attrs[key] = value
	return nil
}

// Get returns a dataset by full path.
func (f *File) Get(name string) (*Dataset, bool) {
	d, ok := f.ds[name]
	return d, ok
}

// EncodedLen returns the exact number of bytes WriteTo produces, so a
// caller writing into memory can size its buffer once.
func (f *File) EncodedLen() int {
	n := len(Magic) + 4
	for _, name := range f.order {
		d := f.ds[name]
		n += 4 + len(name) + 1 + 4 + 8*len(d.Dims) + 4 + 8*(len(d.F64)+len(d.I64))
		for k, v := range d.Attrs {
			n += 4 + len(k) + 4 + len(v)
		}
	}
	return n
}

// chunkBytes is how much WriteTo gathers before each Write and how much
// ReadFrom asks for at once inside a dataset's data.
const chunkBytes = 4096

// encoder gathers little-endian fields in a fixed chunk and hands it to w
// whenever it is full: no reflection and no Write per element. The first
// writer error sticks; n counts the bytes w accepted.
type encoder struct {
	w    io.Writer
	n    int64
	err  error
	fill int
	buf  [chunkBytes]byte
}

func (e *encoder) flush() {
	if e.err == nil && e.fill > 0 {
		var m int
		m, e.err = e.w.Write(e.buf[:e.fill])
		e.n += int64(m)
	}
	e.fill = 0
}

// next returns the chunk's next k bytes, k <= 8, flushing first if needed.
func (e *encoder) next(k int) []byte {
	if e.fill+k > len(e.buf) {
		e.flush()
	}
	e.fill += k
	return e.buf[e.fill-k : e.fill]
}

func (e *encoder) u8(v byte)    { e.next(1)[0] = v }
func (e *encoder) u32(v uint32) { binary.LittleEndian.PutUint32(e.next(4), v) }
func (e *encoder) u64(v uint64) { binary.LittleEndian.PutUint64(e.next(8), v) }

// str writes s behind its length; raw writes the bytes alone.
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.raw(s)
}

func (e *encoder) raw(s string) {
	for len(s) > 0 {
		if e.fill == len(e.buf) {
			e.flush()
		}
		m := copy(e.buf[e.fill:], s)
		e.fill += m
		s = s[m:]
	}
}

// WriteTo serialises the container. Datasets are written in creation order.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	e := &encoder{w: w}
	e.raw(Magic)
	e.u32(uint32(len(f.order)))
	for _, name := range f.order {
		if e.err != nil {
			break
		}
		d := f.ds[name]
		e.str(name)
		var dtype byte = dtypeF64
		if d.I64 != nil {
			dtype = dtypeI64
		}
		e.u8(dtype)
		e.u32(uint32(len(d.Dims)))
		for _, dim := range d.Dims {
			e.u64(uint64(dim))
		}
		// Attributes, sorted for deterministic output.
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.u32(uint32(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.str(d.Attrs[k])
		}
		switch dtype {
		case dtypeF64:
			for _, v := range d.F64 {
				e.u64(math.Float64bits(v))
			}
		case dtypeI64:
			for _, v := range d.I64 {
				e.u64(uint64(v))
			}
		}
	}
	e.flush()
	return e.n, e.err
}

// decoder reads exactly the fields asked for — never past the container's
// end — through one scratch chunk.
type decoder struct {
	r   io.Reader
	buf [chunkBytes]byte
}

// fixed reads the next k bytes, k <= len(buf), with io.ReadFull's errors.
func (d *decoder) fixed(k int) ([]byte, error) {
	_, err := io.ReadFull(d.r, d.buf[:k])
	return d.buf[:k], err
}

func (d *decoder) u8() (byte, error) {
	b, err := d.fixed(1)
	return b[0], err
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.fixed(4)
	return binary.LittleEndian.Uint32(b), err
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.fixed(8)
	return binary.LittleEndian.Uint64(b), err
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: implausible string length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// words reads n 8-byte elements a chunk at a time and passes each to put.
// The caller's buffer thus grows with the bytes actually read, so a header
// claiming a huge shape over a tiny stream fails with an io error instead
// of allocating n elements up front. A stream that ends inside the data
// reports what reading element by element would: io.EOF when it ends
// between two elements, io.ErrUnexpectedEOF inside one.
func (d *decoder) words(n int, put func(uint64)) error {
	for n > 0 {
		k := min(n, len(d.buf)/8)
		got, err := io.ReadFull(d.r, d.buf[:8*k])
		if err == io.ErrUnexpectedEOF && got%8 == 0 {
			err = io.EOF
		}
		if err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			put(binary.LittleEndian.Uint64(d.buf[8*i:]))
		}
		n -= k
	}
	return nil
}

// ReadFrom parses a serialised container.
func ReadFrom(r io.Reader) (*File, error) {
	d := &decoder{r: r}
	magic, err := d.fixed(len(Magic))
	if err != nil {
		return nil, fmt.Errorf("h5lite: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	count, err := d.u32()
	if err != nil {
		return nil, fmt.Errorf("h5lite: reading count: %w", err)
	}
	const maxDatasets = 1 << 20
	if count > maxDatasets {
		return nil, fmt.Errorf("%w: implausible dataset count %d", ErrCorrupt, count)
	}
	f := New()
	for i := uint32(0); i < count; i++ {
		name, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("h5lite: dataset %d name: %w", i, err)
		}
		dtype, err := d.u8()
		if err != nil {
			return nil, err
		}
		ndims, err := d.u32()
		if err != nil {
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
			dim, err := d.u64()
			if err != nil {
				return nil, err
			}
			if dim > maxElems {
				return nil, fmt.Errorf("%w: %q dimension %d is %d", ErrCorrupt, name, j, dim)
			}
			dims[j] = int(dim)
			if dim != 0 {
				if elems > maxElems/dim {
					return nil, fmt.Errorf("%w: %q shape %v overflows the element limit", ErrCorrupt, name, dims[:j+1])
				}
				elems *= dim
			} else {
				elems = 0
			}
		}
		n := int(elems)
		nattrs, err := d.u32()
		if err != nil {
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
			k, err := d.str()
			if err != nil {
				return nil, err
			}
			v, err := d.str()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, kv{k, v})
		}
		// Bounded initial capacity: see decoder.words.
		const chunkElems = 1 << 16
		initCap := min(n, chunkElems)
		switch dtype {
		case dtypeF64:
			data := make([]float64, 0, initCap)
			err := d.words(n, func(bits uint64) { data = append(data, math.Float64frombits(bits)) })
			if err != nil {
				return nil, fmt.Errorf("h5lite: %q data: %w", name, err)
			}
			if err := f.CreateF64(name, dims, data); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		case dtypeI64:
			data := make([]int64, 0, initCap)
			err := d.words(n, func(bits uint64) { data = append(data, int64(bits)) })
			if err != nil {
				return nil, fmt.Errorf("h5lite: %q data: %w", name, err)
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
