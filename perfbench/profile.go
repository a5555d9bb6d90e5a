package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped perftools profile.proto message. The
// decoder below reads only what per-layer attribution needs: samples
// (location stack, CPU nanoseconds, labels), locations (their inlined
// function lines, innermost first) and function names.

// sample is one profile sample: its stack as function names, leaf
// first with inlined frames expanded, and its CPU time.
type sample struct {
	stack  []string
	cpuNs  int64
	labels map[string]string
}

// parseProfile decodes a gzipped CPU profile written by runtime/pprof.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> string index
		strs      []string
		valueIdx  = -1
		typeNames [][2]int64
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var typ, unit int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					typ = int64(v)
				case 2:
					unit = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, [2]int64{typ, unit})
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range typeNames {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		var labels map[string]string
		for _, l := range s.labels {
			if labels == nil {
				labels = map[string]string{}
			}
			labels[str(l[0])] = str(l[1])
		}
		out = append(out, sample{stack: stack, cpuNs: s.values[valueIdx], labels: labels})
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (wire types 0, 1, 5) or its bytes (wire
// type 2).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			var v uint64
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either as a
// single value or packed into a length-delimited run.
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers of the per-layer CPU attribution, in report order. The repo's
// own packages keep their names; encoding/json, net/http and the Go
// runtime's collector and allocator get short names; "other" holds the
// rest (the benchmark's own code, idle scheduling, packages no listed
// layer calls).
var layers = []string{
	"model", "trace", "sched", "core", "engine", "fault", "graph",
	"protocols", "rng", "bitset", "experiment", "campaign", "service",
	"obs", "json", "http", "gc", "other",
}

// packageOf extracts the import path from a Go symbol name such as
// "repro/internal/model.(*Simulator).Step" or
// "repro/internal/engine.forEachCtx[go.shape.int]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfPackage names the layer an import path belongs to, or "" for
// packages that are not a layer of their own (their time goes to the
// nearest caller that is).
func layerOfPackage(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "main":
		return "other"
	}
	return ""
}

// gcFrame reports whether a runtime function belongs to the garbage
// collector or the allocator.
func gcFrame(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.gc", "runtime.GC", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.(*mheap)", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*sweepLocked)", "runtime.(*gcWork)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf attributes a sample's self time to the innermost frame whose
// package is a layer, so runtime helpers, syscalls and unlisted
// standard packages count toward the layer that called them; time
// inside the runtime's collector or allocator is "gc", whoever
// allocated.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// Public entry points whose cumulative CPU the traced runs report.
var entryPoints = []struct{ metric, fn string }{
	{"model.step_cpu_s", "repro/internal/model.(*Simulator).Step"},
	{"model.silent_now_cpu_s", "repro/internal/model.(*Simulator).SilentNow"},
	{"model.run_rounds_cpu_s", "repro/internal/model.(*Simulator).RunRounds"},
	{"trace.report_cpu_s", "repro/internal/trace.(*Recorder).ReportInto"},
}

// clientLabel marks load-generator goroutines (pprof label), whose CPU
// is not the system's: it is excluded from every layer.
const clientLabel = "perfbench-client"

// attribute sums the samples' CPU seconds per layer ("<layer>.self_cpu_s")
// and per entry point (cumulative), skipping load-generator samples.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layers {
		out[l+".self_cpu_s"] = 0
	}
	for _, e := range entryPoints {
		out[e.metric] = 0
	}
	for _, s := range samples {
		if s.labels[clientLabel] != "" {
			continue
		}
		sec := float64(s.cpuNs) / 1e9
		out[layerOf(s.stack)+".self_cpu_s"] += sec
		for _, e := range entryPoints {
			for _, fn := range s.stack {
				if fn == e.fn {
					out[e.metric] += sec
					break
				}
			}
		}
	}
	return out
}
