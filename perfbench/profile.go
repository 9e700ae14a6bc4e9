package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-layer sample counts.
// A layer is one hyperprof/internal/<m> module. Each sample goes to exactly
// one bucket, by these rules in order:
//
//  1. A stack under the GC's background workers (mark, sweep, scavenge) goes
//     to "gc".
//  2. Otherwise the innermost hyperprof/internal/<m> frame names the bucket:
//     runtime and standard-library frames above it are charged to it.
//     One exception: when that frame is the sim kernel's process handoff
//     (Kernel.step, Proc.park or a spawned process's start/exit) and every
//     frame above it is a runtime frame, the sample goes to "sim.switch".
//  3. A stack with no internal frame that is rooted in runtime.mcall is the
//     scheduler running on the system stack after a goroutine parked. With
//     one simulation per process, the goroutines that park are the kernel's
//     processes, so it goes to "sim.switch" too.
//  4. Anything else is "other".
//
// Samples are also counted inclusively for a few functions whose share the
// per-layer metrics name (constructors and SSTable sealing).

const internalPrefix = "hyperprof/internal/"

// Bucket names that are not modules.
const (
	bucketGC     = "gc"
	bucketSwitch = "sim.switch"
	bucketOther  = "other"
)

// gcRoots are the runtime's background GC goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// handoffFrames are the sim functions that hand control between the kernel
// goroutine and a process goroutine over channels.
var handoffFrames = []string{
	"hyperprof/internal/sim.(*Kernel).step",
	"hyperprof/internal/sim.(*Proc).park",
	"hyperprof/internal/sim.(*Kernel).Spawn.func",
}

// inclusiveFrames maps a per-layer metric to the function whose inclusive
// share it reports.
var inclusiveFrames = map[string]string{
	"bigtable.bootstrap_frac": "hyperprof/internal/bigtable.New",
	"spanner.bootstrap_frac":  "hyperprof/internal/spanner.New",
	"bigquery.bootstrap_frac": "hyperprof/internal/bigquery.New",
	"bigtable.seal_frac":      "hyperprof/internal/bigtable.(*sstable).seal",
}

// sample is one distinct stack, leaf first, with its sample count.
type sample struct {
	stack []string
	count int64
}

// module returns the internal module a function belongs to.
func module(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// bucket charges one stack (leaf first) to a layer.
func bucket(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return bucketGC
		}
	}
	for i, fn := range stack {
		m, ok := module(fn)
		if !ok {
			continue
		}
		if m == "sim" && i > 0 && isHandoff(fn) && allRuntime(stack[:i]) {
			return bucketSwitch
		}
		return m
	}
	if n := len(stack); n > 0 && stack[n-1] == "runtime.mcall" {
		return bucketSwitch
	}
	return bucketOther
}

func isHandoff(fn string) bool {
	for _, h := range handoffFrames {
		if strings.HasPrefix(fn, h) {
			return true
		}
	}
	return false
}

func allRuntime(frames []string) bool {
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "runtime.") {
			return false
		}
	}
	return true
}

// layerCounts is the bucketed form of one or more profiles.
type layerCounts struct {
	Total     int64
	Buckets   map[string]int64
	Inclusive map[string]int64
	// Other counts the unattributed stacks, for diagnosing the rules.
	Other map[string]int64
}

// add charges samples to their buckets and inclusive frames.
func (lc *layerCounts) add(samples []sample) {
	lc.init()
	for _, s := range samples {
		lc.Total += s.count
		b := bucket(s.stack)
		lc.Buckets[b] += s.count
		if b == bucketOther {
			lc.Other[strings.Join(s.stack, " < ")] += s.count
		}
		for metric, fn := range inclusiveFrames {
			for _, f := range s.stack {
				if f == fn {
					lc.Inclusive[metric] += s.count
					break
				}
			}
		}
	}
}

func (lc *layerCounts) init() {
	if lc.Buckets == nil {
		lc.Buckets = map[string]int64{}
		lc.Inclusive = map[string]int64{}
		lc.Other = map[string]int64{}
	}
}

// merge folds another count set into lc.
func (lc *layerCounts) merge(o layerCounts) {
	lc.init()
	lc.Total += o.Total
	for k, v := range o.Buckets {
		lc.Buckets[k] += v
	}
	for k, v := range o.Inclusive {
		lc.Inclusive[k] += v
	}
	for k, v := range o.Other {
		lc.Other[k] += v
	}
}

// frac returns a bucket's share of all samples.
func (lc layerCounts) frac(b string) float64 {
	if lc.Total == 0 {
		return 0
	}
	return float64(lc.Buckets[b]) / float64(lc.Total)
}

// topOther lists the n heaviest unattributed stacks.
func (lc layerCounts) topOther(n int) []string {
	stacks := sortedKeys(lc.Other)
	sort.SliceStable(stacks, func(i, j int) bool { return lc.Other[stacks[i]] > lc.Other[stacks[j]] })
	var lines []string
	for _, st := range stacks[:min(n, len(stacks))] {
		lines = append(lines, fmt.Sprintf("%d %s", lc.Other[st], st))
	}
	return lines
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it
// and returns its samples with function-name stacks, leaf first. Only the
// fields the bucketing needs are read; the first sample value (the sample
// count) is the weight.
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
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachUint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var body []byte
		switch key & 7 {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field, which is either one varint
// (v, with b nil) or a packed run of varints (b).
func eachUint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
