package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// gcGroup is the pseudo-package of a cpuGroup that counts garbage
// collection: background mark workers, mark assists and sweeping.
const gcGroup = "runtime.gc"

// cpuGroup is one figures.cpu_share metric: the share of profile samples
// attributed to a package, by leaf frame (self) or by any frame (stack).
type cpuGroup struct {
	metric, pkg string
	stack       bool
}

// cpuShares reads a gzipped pprof CPU profile and returns each group's
// share of the samples. It decodes only the profile.proto fields it needs
// (samples, locations, functions, string table), so the benchmark stays
// on the standard library.
func cpuShares(profile []byte, groups []cpuGroup) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location -> function ids, leaf first
		funcName = map[uint64]int64{}    // function -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}

	shares := make(map[string]float64, len(groups))
	var total float64
	for _, s := range samples {
		total += float64(s.count)
		var frames []string // leaf first
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, name(fn))
			}
		}
		for _, g := range groups {
			hit := false
			for i, f := range frames {
				if !g.stack && i > 0 {
					break
				}
				if inGroup(f, g.pkg) {
					hit = true
					break
				}
			}
			if hit {
				shares[g.metric] += float64(s.count)
			}
		}
	}
	for _, g := range groups {
		shares[g.metric] = ratio(shares[g.metric], total)
	}
	return shares, nil
}

// inGroup reports whether the function named fn belongs to pkg.
func inGroup(fn, pkg string) bool {
	if pkg == gcGroup {
		return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.sweepone" || fn == "runtime.bgscavenge"
	}
	return funcPackage(fn) == pkg
}

// funcPackage returns the import path of a fully qualified function name
// such as "mpstream/internal/sim/cache.(*Cache).Access".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// eachField walks the top-level fields of one protobuf message, handing
// varints to f as v and length-delimited fields as b.
func eachField(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which protobuf encodes
// either packed (b set) or one value per field (v set).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
