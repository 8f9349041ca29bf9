package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The traced pass runs under a runtime/pprof CPU profile and charges each
// sample to the innermost frame that belongs to one of the program's
// modules. The standard library writes the profile but ships no reader, so
// this file decodes the four message types of profile.proto it needs:
// Sample, Location (with its inlined Lines), Function and the string table.

const modulePrefix = "heterohpc/internal/"

// framePackage returns the module a function name belongs to ("" when it is
// not the program's): "heterohpc/internal/mp.(*Rank).SendF64" is "mp",
// "heterohpc/internal/analysis/detclock.run" is "analysis".
func framePackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribute charges one stack (innermost frame first) to a layer: the
// module of the innermost program frame, or "runtime" when the stack never
// enters the program (scheduler, GC workers, the benchmark's own frames).
func attribute(stack []string) string {
	for _, fn := range stack {
		if pkg := framePackage(fn); pkg != "" {
			return pkg
		}
	}
	return "runtime"
}

// cpuShares turns stacks with their sampled nanoseconds into each layer's
// share of the profile.
func cpuShares(stacks [][]string, nanos []int64) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for i, st := range stacks {
		by[attribute(st)] += nanos[i]
		total += nanos[i]
	}
	out := make(map[string]float64, len(by))
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// protoField is one decoded field of a protobuf message: varint fields
// carry num, length-delimited fields carry data.
type protoField struct {
	tag  int
	num  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("profile: bad varint")
}

func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{tag: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.num, b, err = readVarint(b)
			if err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return nil, fmt.Errorf("profile: short field %d", f.tag)
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (one length-delimited run) or as single varints.
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.num), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped pprof CPU profile into one stack of
// function names (innermost first) per sample and the nanoseconds sampled
// on it (the profile's last value column).
func parseCPUProfile(gz []byte) (stacks [][]string, nanos []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.tag {
		case 2: // Sample
			fs, err := readFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.tag {
				case 1:
					s.locs, err = repeatedVarints(sf, s.locs)
				case 2:
					s.vals, err = repeatedVarints(sf, s.vals)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location: id, then one Line per inlined frame, innermost first
			fs, err := readFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.tag {
				case 1:
					id = lf.num
				case 4:
					ls, err := readFields(lf.data)
					if err != nil {
						return nil, nil, err
					}
					for _, l := range ls {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id, name
			fs, err := readFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		nanos = append(nanos, int64(s.vals[len(s.vals)-1]))
	}
	return stacks, nanos, nil
}
