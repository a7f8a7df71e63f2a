package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers names the host-time layers a CPU profile's self time is grouped
// into, in report order; every sample lands in exactly one.
var hostLayers = []string{"sim", "serve", "srpc", "spm_hw", "device", "crypto", "gc", "sched", "other"}

// sampleLayer assigns one sample's self time. Runtime scheduling and memory
// management, crypto and the program's own packages are layers of their own;
// time in any other library routine (copying, math/rand, encoding/binary,
// container/heap) is charged to the nearest program frame that called it.
func sampleLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if l := layerOf(stack[0]); l != "other" {
		return l
	}
	for _, fn := range stack[1:] {
		if strings.HasPrefix(fn, "cronus/") {
			return layerOf(fn)
		}
	}
	return "other"
}

// layerOf maps a function's package (and, inside the runtime, its name) to a
// host layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "gcWriteBarrier") {
		return "gc"
	}
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/internal"):
		switch {
		case isMemoryFunc(fn):
			return "gc"
		case isRuntimeLibFunc(fn):
			return "other"
		}
		return "sched"
	case pkg == "sync" || pkg == "sync/atomic":
		return "sched"
	case strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto") ||
		pkg == "math/big" || strings.HasPrefix(pkg, "hash"):
		return "crypto"
	}
	mod, ok := strings.CutPrefix(pkg, "cronus/internal/")
	if !ok {
		return "other"
	}
	mod, _, _ = strings.Cut(mod, "/")
	switch mod {
	case "sim":
		return "sim"
	case "serve", "cluster", "elastic", "slo", "otrace":
		return "serve"
	case "srpc", "normal", "ipc", "wire":
		return "srpc"
	case "spm", "hw", "mos", "enclave", "partition", "provision":
		return "spm_hw"
	case "gpu", "npu", "dnn", "tvm", "workload", "baseline", "accel":
		return "device"
	case "attest":
		return "crypto"
	}
	return "other"
}

// pkgOf extracts the import path from a symbol such as
// "cronus/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isMemoryFunc reports whether a runtime function allocates or collects.
func isMemoryFunc(fn string) bool {
	name := fn[strings.IndexByte(fn, '.')+1:]
	for _, s := range []string{"malloc", "gc", "GC", "scan", "mark", "sweep", "heap", "span", "mcache",
		"mcentral", "newobject", "makeslice", "makemap", "growslice", "wbBuf", "Barrier", "greyobject",
		"findObject", "memclr", "scavenge", "pageAlloc", "typePointers", "nextFree", "persistentalloc", "madvise", "sysUnused", "sysUsed", "sysAlloc", "mmap",
		"newarray", "rawstring", "concatstring", "slicebytetostring", "convT", "finalizer"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// isRuntimeLibFunc reports whether a runtime function is a library routine
// (copying, hashing, maps, interface conversion) rather than scheduling.
func isRuntimeLibFunc(fn string) bool {
	name := fn[strings.IndexByte(fn, '.')+1:]
	for _, s := range []string{"memmove", "memequal", "memhash", "aeshash", "strhash", "map", "interhash",
		"nilinterhash", "efaceeq", "ifaceeq", "cmpstring", "typedmemmove", "typedslicecopy", "assert",
		"getitab", "panic", "duff", "rand", "float", "f64", "f32", "int64", "uint64"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// layerNanos decodes a gzipped pprof CPU profile and returns each host
// layer's self time in CPU nanoseconds, and the sample count.
func layerNanos(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]int64)
	var samples int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		// Value 0 is the sample count, the last value CPU nanoseconds.
		v := s.values[len(s.values)-1]
		samples += s.values[0]
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		byLayer[sampleLayer(stack)] += v
	}
	return byLayer, samples, nil
}

// profile is the part of profile.proto the layer split needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the protobuf wire format of profile.proto: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := fields(b, func(num int, wire int, v uint64, sub []byte) error {
		if wire != 2 {
			return nil
		}
		switch num {
		case 2:
			var s sample
			err := fields(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case 2:
					for _, u := range appendVarints(nil, wire, v, sub) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return fields(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of the string table")
		}
	}
	return p, nil
}

// appendVarints collects a repeated integer field in either its packed
// (length-delimited) or its one-value-per-field encoding.
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		u, n := varint(sub)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		sub = sub[n:]
	}
	return dst
}

// fields walks one protobuf message, calling f for each field with its
// varint value (wire type 0) or its bytes (wire type 2).
func fields(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
