package columnar

import (
	"testing"
	"testing/quick"

	"hyperprof/internal/stats"
)

// count returns the number of selected rows.
func count(b *Bitmap) int {
	n := 0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			n++
		}
	}
	return n
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || count(b) != 0 {
		t.Fatal("fresh bitmap")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if count(b) != 4 {
		t.Fatalf("count = %d", count(b))
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("unset bits read as set")
	}
}

func TestFilters(t *testing.T) {
	col := []int64{5, 10, 15, 20, 25}
	ge := FilterGE(col, 15)
	if count(ge) != 3 || !ge.Get(2) || ge.Get(1) {
		t.Fatalf("FilterGE: %d", count(ge))
	}
}

func TestHashAggregate(t *testing.T) {
	keys := []int64{1, 2, 1, 3, 2, 1}
	vals := []int64{10, 20, 30, 40, 50, 60}
	got, err := HashAggregate(keys, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1: 100, 2: 70, 3: 40}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %d = %d, want %d", k, got[k], v)
		}
	}
	// With selection.
	sel := FilterGE(vals, 30)
	got, err = HashAggregate(keys, vals, sel)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 90 || got[2] != 50 || got[3] != 40 {
		t.Fatalf("selected agg = %v", got)
	}
	// Length validation.
	if _, err := HashAggregate(keys, vals[:2], nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := HashAggregate(keys, vals, NewBitmap(3)); err == nil {
		t.Fatal("selection mismatch accepted")
	}
}

func TestMergeGroups(t *testing.T) {
	dst := map[int64]int64{1: 5}
	MergeGroups(dst, map[int64]int64{1: 10, 2: 3})
	if dst[1] != 15 || dst[2] != 3 {
		t.Fatalf("merged = %v", dst)
	}
}

func TestHashJoin(t *testing.T) {
	groups := map[int64]int64{1: 10, 2: 20, 99: 5}
	dim := map[int64]string{1: "a", 2: "b", 3: "c"}
	got := HashJoin(groups, dim)
	if got["a"] != 10 || got["b"] != 20 {
		t.Fatalf("join = %v", got)
	}
	if _, ok := got["c"]; ok {
		t.Fatal("unmatched dimension row joined")
	}
	if len(got) != 2 {
		t.Fatalf("inner join kept %d rows", len(got))
	}
}

func TestSortKeysByValueDesc(t *testing.T) {
	m := map[int64]int64{1: 50, 2: 100, 3: 50, 4: 10}
	order := SortKeysByValueDesc(m)
	want := []int64{2, 1, 3, 4} // ties (1,3) break by ascending key
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestAggregateMatchesReferenceProperty(t *testing.T) {
	// Property: vectorized filter+aggregate equals the naive row loop.
	rng := stats.NewRNG(5)
	if err := quick.Check(func(seed uint16) bool {
		n := 1 + rng.Intn(500)
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(10))
			vals[i] = int64(rng.Intn(1000))
		}
		threshold := int64(rng.Intn(1000))

		sel := FilterGE(vals, threshold)
		got, err := HashAggregate(keys, vals, sel)
		if err != nil {
			return false
		}
		want := map[int64]int64{}
		for i := range keys {
			if vals[i] >= threshold {
				want[keys[i]] += vals[i]
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
