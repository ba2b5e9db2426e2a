package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// The per-module CPU figures come from a CPU profile of this process,
// decoded here with a minimal protobuf reader (the benchmark depends on
// nothing outside the standard library and the program itself). Each
// sample is charged to the innermost frame that belongs to a program
// package, so time in map probes, the allocator or the GC write
// barrier lands in the module that caused it. That is the flat view
// `go tool pprof -top -show='^ethmeasure/'` gives of the same profile,
// summed by package. Samples whose stack holds no program frame (GC
// workers, the scheduler, the profiler itself) go to "runtime".

// programPrefix is the import-path prefix of the program's packages.
const programPrefix = "ethmeasure/"

// profiler collects CPU profiles of selected stretches of the run.
type profiler struct {
	buf     bytes.Buffer
	running bool
	seconds map[string]float64 // module -> self CPU seconds
	total   float64

	// keepDir, when set, receives every stretch's raw profile as
	// cpu-<n>.pb.gz, for comparison with go tool pprof.
	keepDir string
	kept    int
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.running = true
	return nil
}

// stop ends the current stretch and adds its samples to the totals.
func (p *profiler) stop() error {
	if !p.running {
		return nil
	}
	pprof.StopCPUProfile()
	p.running = false
	if p.keepDir != "" {
		p.kept++
		name := filepath.Join(p.keepDir, fmt.Sprintf("cpu-%d.pb.gz", p.kept))
		if err := os.WriteFile(name, p.buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	mods, err := moduleCPU(p.buf.Bytes())
	if err != nil {
		return err
	}
	if p.seconds == nil {
		p.seconds = make(map[string]float64)
	}
	for m, s := range mods {
		p.seconds[m] += s
		p.total += s
	}
	return nil
}

// moduleOf maps a profiled function name to the module it is charged
// to, or "" when the frame is not the program's.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, programPrefix+"internal/"):
		rest := fn[len(programPrefix+"internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, programPrefix+"perfbench."):
		// The benchmark's own package: "main" in its binary, its
		// import path in its test binary.
		return "bench"
	}
	return ""
}

// moduleCPU decodes a gzipped pprof CPU profile and returns self CPU
// seconds per module.
func moduleCPU(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		samples   [][]uint64 // location ids, leaf first
		values    []int64    // last value of each sample (nanoseconds)
		malformed = errors.New("cpu profile: malformed protobuf")
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var last int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					if wire == 2 {
						return eachVarint(b, func(x uint64) { locs = append(locs, x) })
					}
					locs = append(locs, v)
				case 2:
					if wire == 2 {
						return eachVarint(b, func(x uint64) { last = int64(x) })
					}
					last = int64(v)
				}
				return nil
			})
			samples = append(samples, locs)
			values = append(values, last)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: innermost inlined function first
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
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
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			if wire != 2 {
				return malformed
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for i, locs := range samples {
		mod := "runtime"
	stack:
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				idx := funcName[f]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, malformed
				}
				if m := moduleOf(strs[idx]); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += float64(values[i]) / 1e9
	}
	return out, nil
}

// eachField walks one protobuf message. For varint fields fn gets the
// value in v; for length-delimited fields the payload in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("cpu profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed run of varints.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
