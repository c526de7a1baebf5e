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

// selfLayers are the buckets CPU self time is reported under, in output
// order. "other" collects everything the rest do not name.
var selfLayers = []string{
	"cpu", "cache", "sched", "dram", "core", "trace", "sim", "exp",
	"store", "snap", "serve", "http", "json", "runtime", "other",
}

// helperLayer assigns the repository's helper packages to the one layer
// that imports them. fifo and timing have several importers and stay in
// "other".
var helperLayer = map[string]string{
	"refresh":   "dram",
	"power":     "sim",
	"stats":     "exp",
	"metrics":   "exp",
	"workload":  "trace",
	"telemetry": "serve",
	"journal":   "serve",
	"ring":      "serve",
}

// funcPackage returns the import path of a profiled function name such as
// "dsarp/internal/sched.(*Controller).Tick" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf buckets a package import path.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "dsarp/internal/"); ok {
		for _, l := range selfLayers {
			if l == rest {
				return l
			}
		}
		if l, ok := helperLayer[rest]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "syscall", pkg == "internal/runtime/syscall",
		pkg == "internal/poll", strings.HasPrefix(pkg, "internal/syscall/"):
		return "http"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}

// addProfile decodes a gzipped pprof CPU profile and adds each sample's
// CPU time to the bucket of its leaf (innermost, after inlining) function.
func addProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if idx := p.funcName[fns[0]]; idx >= 0 && int(idx) < len(p.strings) {
				name = p.strings[idx]
			}
		}
		into[layerOf(funcPackage(name))] += s.values[len(s.values)-1]
	}
	return nil
}

// sample is one profile.proto Sample: location IDs, leaf first, and values
// (for CPU profiles: sample count, then nanoseconds).
type sample struct {
	locs   []uint64
	values []int64
}

// profile holds the parts of profile.proto self-time attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// parseProfile decodes the uncompressed profile.proto message (field
// numbers from github.com/google/pprof/proto/profile.proto).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
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
		case num == 5 && wire == 2: // Function
			var id uint64
			name := int64(-1)
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
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
		case num == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, passing each field's number, wire
// type, and either its varint value (wire 0) or its payload (wire 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// packed (wire 2) or one value per field (wire 0).
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// selfShares turns bucket totals into percentages of their sum, one entry
// per selfLayers bucket (zero when absent).
func selfShares(buckets map[string]int64) map[string]float64 {
	var total int64
	for _, v := range buckets {
		total += v
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		share := 0.0
		if total > 0 {
			share = float64(buckets[l]) / float64(total) * 100
		}
		out[l+".self_pct"] = share
	}
	return out
}
