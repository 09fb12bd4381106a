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

// The traced run charges CPU time to modules by reading the CPU profile
// that runtime/pprof writes. The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); the standard library has
// no public reader, so this file decodes the few messages attribution
// needs: samples, locations with their (inlined) lines, functions and the
// string table.

const modulePrefix = "repro/internal/"

// snapshotFuncs are the sim entry points whose cumulative CPU share is
// sim.snapshot_frac: capturing, forking and reconfiguring a warmed
// engine, plus the quiesce drain that snapshots require.
var snapshotFuncs = []string{
	"repro/internal/sim.(*Simulator).Snapshot",
	"repro/internal/sim.(*Snapshot).Fork",
	"repro/internal/sim.(*Simulator).Reconfigure",
	"repro/internal/sim.(*Simulator).quiesce",
}

// attribution is the module ledger of one or more CPU profiles.
type attribution struct {
	// totalNS is the CPU time of every sample.
	totalNS int64
	// selfNS charges each sample to the innermost repro/internal/<module>
	// frame; samples with no such frame go to "runtime".
	selfNS map[string]int64
	// snapshotNS is the CPU time of samples with a snapshotFuncs frame
	// anywhere on the stack.
	snapshotNS int64
}

func newAttribution() *attribution {
	return &attribution{selfNS: map[string]int64{}}
}

// frac returns module's share of all samples.
func (a *attribution) frac(module string) float64 {
	if a.totalNS == 0 {
		return 0
	}
	return float64(a.selfNS[module]) / float64(a.totalNS)
}

// checkSum reports an error unless the module charges add up to every
// sample.
func (a *attribution) checkSum() error {
	var sum int64
	for _, ns := range a.selfNS {
		sum += ns
	}
	if sum != a.totalNS {
		return fmt.Errorf("profile: module charges sum to %d ns of %d ns sampled", sum, a.totalNS)
	}
	return nil
}

// moduleOf returns the module of a fully qualified Go function name, or ""
// when the function is outside repro/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

func isSnapshotFunc(fn string) bool {
	for _, p := range snapshotFuncs {
		if fn == p || strings.HasPrefix(fn, p+".") {
			return true
		}
	}
	return false
}

// add decodes one gzipped CPU profile and charges its samples.
func (a *attribution) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return errors.New("profile: no nanoseconds sample type")
	}
	funcName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		funcName[id] = p.str(nameIdx)
	}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return errors.New("profile: sample without a CPU time value")
		}
		ns := s.values[valueIdx]
		module, snap := "", false
		for _, locID := range s.locations {
			for _, fnID := range p.locations[locID] {
				fn := funcName[fnID]
				if module == "" {
					module = moduleOf(fn)
				}
				snap = snap || isSnapshotFunc(fn)
			}
		}
		if module == "" {
			module = "runtime"
		}
		a.totalNS += ns
		a.selfNS[module] += ns
		if snap {
			a.snapshotNS += ns
		}
	}
	return nil
}

// rawProfile holds the decoded subset of a profile. locations maps a
// location id to its function ids, innermost (inlined) first.
type rawProfile struct {
	sampleTypes []int64 // string-table index of each sample value's unit
	samples     []rawSample
	locations   map[uint64][]uint64
	functions   map[uint64]int64 // function id -> name string index
	strings     []string
}

type rawSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeUnit {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s rawSample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case sampleLocation:
					return appendVarints(&s.locations, w, v, d)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
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
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that may be packed
// (wire type 2) or written one element at a time (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
