package stats

import (
	"fmt"
	"math"
	"slices"
)

// Recorder is the common face of the exact Summary and the bounded-memory
// Sketch, letting workloads and studies swap one for the other with a config
// knob. Summary keeps every observation and answers exactly; Sketch keeps
// O(log(max/min)) bucket counters and answers within a documented relative
// error.
type Recorder interface {
	Add(v float64)
	N() int
	Mean() float64
	Quantile(q float64) float64
	Max() float64
}

var (
	_ Recorder = (*Summary)(nil)
	_ Recorder = (*Sketch)(nil)
)

// DefaultSketchRelErr is the relative value-error bound a zero-configured
// Sketch guarantees.
const DefaultSketchRelErr = 0.01

// Sketch is a quantile sketch over non-negative observations with
// bounded memory and a relative value-error guarantee, in the style of
// DDSketch (Masson et al., VLDB'19): bucket i counts observations in
// (γ^(i-1), γ^i] with γ = (1+α)/(1−α), so reporting the bucket midpoint
// 2γ^i/(γ+1) is within relative error α of any value in the bucket.
//
// Two properties matter to this repository beyond memory:
//
//   - Quantile guarantee: for any q, Quantile(q) is within relative error α
//     of an exact q-quantile of the recorded values (observations ≤ 0 are
//     counted in a dedicated zero bucket and reported exactly as 0).
//   - Order independence: every exported number is derived from (key,
//     count) pairs in sorted-key order, so observation order cannot change
//     exported bytes. This is why the repo uses a bucketed sketch rather
//     than KLL/t-digest, whose compaction decisions depend on insertion
//     order.
//
// Memory is O(log(max/min)/α): ~1500 buckets of 16 bytes cover nanoseconds
// through hours at α = 1%, regardless of how many observations stream
// through. The zero value is not usable; create one with NewSketch.
type Sketch struct {
	relErr      float64
	gamma       float64
	invLogGamma float64
	coef        float64 // 2/(γ+1): estimate(k) = coef·γ^k
	zero        int64
	total       int64
	counts      map[int]int64
	keys        []int // sorted bucket keys, rebuilt lazily
	keysDirty   bool
}

// NewSketch returns an empty sketch guaranteeing the given relative value
// error (0 < relErr < 1). A non-positive relErr selects
// DefaultSketchRelErr.
func NewSketch(relErr float64) *Sketch {
	if relErr <= 0 {
		relErr = DefaultSketchRelErr
	}
	if relErr >= 1 {
		panic(fmt.Sprintf("stats: sketch relative error %g out of range (0,1)", relErr))
	}
	gamma := (1 + relErr) / (1 - relErr)
	return &Sketch{
		relErr:      relErr,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
		coef:        2 / (gamma + 1),
		counts:      make(map[int]int64),
	}
}

// Add records one observation. Values ≤ 0 land in the zero bucket and are
// reported exactly as 0; the simulator's latencies are non-negative, so in
// practice the zero bucket only counts genuine zeros.
func (s *Sketch) Add(v float64) {
	s.total++
	if v <= 0 {
		s.zero++
		return
	}
	k := int(math.Ceil(math.Log(v) * s.invLogGamma))
	if s.counts[k] == 0 {
		s.keysDirty = true
	}
	s.counts[k]++
}

// N returns the number of recorded observations.
func (s *Sketch) N() int { return int(s.total) }

// Buckets returns the number of occupied buckets — the sketch's memory
// footprint in units of one counter, which stays bounded no matter how many
// observations stream through.
func (s *Sketch) Buckets() int {
	n := len(s.counts)
	if s.zero > 0 {
		n++
	}
	return n
}

// estimate returns the representative value of bucket k, within relErr of
// every value the bucket covers.
func (s *Sketch) estimate(k int) float64 {
	return s.coef * math.Pow(s.gamma, float64(k))
}

// sortedKeys returns the occupied bucket keys in ascending order, which is
// ascending value order. The slice is cached and must not be mutated.
func (s *Sketch) sortedKeys() []int {
	if s.keysDirty || len(s.keys) != len(s.counts) {
		s.keys = s.keys[:0]
		for k := range s.counts {
			s.keys = append(s.keys, k)
		}
		slices.Sort(s.keys)
		s.keysDirty = false
	}
	return s.keys
}

// Quantile returns a value within relative error RelErr of an exact
// q-quantile (nearest-rank) of the recorded observations, or 0 for an empty
// sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.total {
		rank = s.total
	}
	if rank <= s.zero {
		return 0
	}
	cum := s.zero
	for _, k := range s.sortedKeys() {
		cum += s.counts[k]
		if cum >= rank {
			return s.estimate(k)
		}
	}
	return 0 // unreachable: cum reaches total ≥ rank
}

// Min returns a value within relative error RelErr of the smallest
// observation (exactly 0 if a non-positive value was recorded), or 0 for an
// empty sketch.
func (s *Sketch) Min() float64 {
	if s.total == 0 || s.zero > 0 {
		return 0
	}
	return s.estimate(s.sortedKeys()[0])
}

// Max returns a value within relative error RelErr of the largest
// observation, or 0 for an empty sketch.
func (s *Sketch) Max() float64 {
	keys := s.sortedKeys()
	if len(keys) == 0 {
		return 0
	}
	return s.estimate(keys[len(keys)-1])
}

// Sum returns the sum of bucket-representative values — within relative
// error RelErr of the exact sum, since every observation is represented
// within RelErr. It is accumulated in sorted-key order from integer counts,
// so the result is bit-identical regardless of observation order
// (a running float sum would not be: float addition is not associative).
func (s *Sketch) Sum() float64 {
	var sum float64
	for _, k := range s.sortedKeys() {
		sum += float64(s.counts[k]) * s.estimate(k)
	}
	return sum
}

// Mean returns Sum()/N(), within relative error RelErr of the exact mean,
// or 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.total == 0 {
		return 0
	}
	return s.Sum() / float64(s.total)
}

// String renders a compact human-readable summary.
func (s *Sketch) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g (±%.2g%% rel, %d buckets)",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max(), s.relErr*100, s.Buckets())
}
