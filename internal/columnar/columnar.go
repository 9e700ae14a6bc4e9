// Package columnar implements the vectorized relational kernels a
// BigQuery-class engine executes per batch: selection bitmaps over typed
// columns, hash aggregation, hash join, and ordering. These are the "core
// compute" operators of Table 5 (filter, aggregate, join, sort) as real
// code; internal/bigquery executes its queries through them.
package columnar

import (
	"fmt"
	"sort"
)

// Bitmap is a selection vector: bit i set means row i is selected.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty selection over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i selected.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << (i % 64) }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]&(1<<(i%64)) != 0 }

// FilterGE selects rows where col[i] >= threshold (the engine's scan
// predicate).
func FilterGE(col []int64, threshold int64) *Bitmap {
	b := NewBitmap(len(col))
	for i, v := range col {
		if v >= threshold {
			b.Set(i)
		}
	}
	return b
}

// HashAggregate computes SUM(vals) grouped by keys over the selected rows.
func HashAggregate(keys, vals []int64, sel *Bitmap) (map[int64]int64, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("columnar: column lengths %d != %d", len(keys), len(vals))
	}
	if sel != nil && sel.Len() != len(keys) {
		return nil, fmt.Errorf("columnar: selection length %d != %d", sel.Len(), len(keys))
	}
	out := map[int64]int64{}
	for i := range keys {
		if sel == nil || sel.Get(i) {
			out[keys[i]] += vals[i]
		}
	}
	return out, nil
}

// MergeGroups folds src into dst (the stage-2 reduction).
func MergeGroups(dst, src map[int64]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// HashJoin probes each group key against a dimension table, summing values
// per dimension payload — the engine's aggregate-then-join pattern. Keys
// missing from the dimension are dropped (inner join).
func HashJoin(groups map[int64]int64, dim map[int64]string) map[string]int64 {
	out := map[string]int64{}
	for k, v := range groups {
		if label, ok := dim[k]; ok {
			out[label] += v
		}
	}
	return out
}

// SortKeysByValueDesc orders group keys by descending aggregate, breaking
// ties by ascending key so results are deterministic.
func SortKeysByValueDesc(m map[int64]int64) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
