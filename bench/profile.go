package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares reads a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, charging every sample to the layer of
// its stack (see layerOf).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcNames[fn]])
			}
		}
		by[layerOf(frames)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// layerOf names the layer a sampled stack (leaf first) is charged to:
// the package of the leaf frame when it is one of the repository's
// layers; the Go runtime when the leaf is the runtime or one of the
// runtime-like standard packages (slices, maps, sort, sync, hashing,
// math); otherwise — other standard packages such as net/http or
// encoding/json, and small helper packages such as isa — the nearest
// caller that is a layer, or for net/http goroutines that run no
// repository code, the side of the connection (see httpRoots). The
// benchmark's own frames (package main) are the "bench" layer, the
// serve-mixed load generator among them.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := pkgOf(frames[0])
	if l, ok := repoLayer(leaf); ok {
		return l
	}
	// A symbol with no package is runtime assembly or C (the race
	// detector's, under -race).
	if runtimeLike(leaf) || !strings.Contains(frames[0], ".") {
		return "runtime"
	}
	for _, f := range frames[1:] {
		if l, ok := repoLayer(pkgOf(f)); ok {
			return l
		}
	}
	for _, f := range frames {
		for prefix, l := range httpRoots {
			if strings.HasPrefix(f, prefix) {
				return l
			}
		}
	}
	return "other"
}

// httpRoots charge net/http goroutines that run no repository code — the
// server's connection loops and the client transport's — to the side they
// serve.
var httpRoots = map[string]string{
	"net/http.(*conn).serve":  "serve",
	"net/http.(*persistConn)": "bench",
	"net/http.(*Transport)":   "bench",
}

// pkgOf returns the import path of a symbol name such as
// "repro/internal/core.(*Core).Step" or "slices.SortFunc[...]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayer maps one of the repository's packages to its layer; helper
// packages that belong to no layer report false.
func repoLayer(pkg string) (string, bool) {
	switch pkg {
	case "main", "repro/bench": // the command, and its test binary
		return "bench", true
	case "repro":
		return "blp", true
	}
	name, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "", false
	}
	switch name {
	case "emu", "trace", "bpred", "cache", "core", "sim", "memo", "store", "serve", "kernels":
		return name, true
	case "rob", "rename", "frq", "flight":
		return "core", true
	case "uncore":
		return "cache", true
	case "memsize":
		return "memo", true
	case "graph", "program":
		return "kernels", true
	}
	return "", false
}

func runtimeLike(pkg string) bool {
	switch pkg {
	case "runtime", "slices", "maps", "sort", "sync", "sync/atomic", "math", "math/bits", "unique":
		return true
	}
	for _, p := range []string{"runtime/", "internal/runtime", "internal/bytealg", "internal/abi",
		"internal/chacha8rand", "internal/sync", "hash", "type:"} {
		if strings.HasPrefix(pkg, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the share computation
// needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost inlined first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// parseProfile decodes the protobuf encoding of a pprof Profile message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, data)
				case 2:
					return appendVarints(&vals, v, data)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// fields calls fn for every field of a protobuf message: v carries a
// varint field's value, data a length-delimited field's bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (v) or packed (data).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
