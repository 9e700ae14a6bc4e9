package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// cached is one cache entry as the recency walk sees it.
type cached struct {
	key  string
	size int64
}

// mruToLRU walks the cache from most to least recently used. It fails the
// test if the back links, the entry map or the byte count disagree with the
// walk.
func mruToLRU(t *testing.T, c *lruCache) []cached {
	t.Helper()
	var out []cached
	var prev *lruEntry
	var used int64
	for e := c.head; e != nil; prev, e = e, e.next {
		if e.prev != prev {
			t.Fatalf("entry %q: back link broken", e.key)
		}
		if c.entries[e.key] != e {
			t.Fatalf("entry %q: not the map's entry", e.key)
		}
		out = append(out, cached{e.key, e.size})
		used += e.size
	}
	if c.tail != prev || len(out) != len(c.entries) || used != c.used {
		t.Fatalf("walk of %d entries (%d bytes) disagrees with tail/map/used (%d entries, %d bytes)",
			len(out), used, len(c.entries), c.used)
	}
	return out
}

// storeState is everything a sequence of writes can change in a store.
type storeState struct {
	Objects  map[string]int64
	HDDUsed  int64
	RAM, SSD []cached
	Stats    [3]TierStats
}

func stateOf(t *testing.T, s *TieredStore) storeState {
	t.Helper()
	st := storeState{
		Objects: map[string]int64{},
		HDDUsed: s.hddUsed,
		RAM:     mruToLRU(t, s.ram),
		SSD:     mruToLRU(t, s.ssd),
	}
	for k, v := range s.objects {
		st.Objects[k] = v
	}
	for _, tier := range Tiers() {
		st.Stats[tier] = s.Stats(tier)
	}
	return st
}

// TestPreloadMatchesWriteLoop runs random stores through Preload and through
// the Write loop it stands for, and compares the full resulting state and
// the returned error.
func TestPreloadMatchesWriteLoop(t *testing.T) {
	for trial := 0; trial < 600; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x9e3779b9))
		caps := Capacities{
			RAM: 1 + rng.Int64N(400),
			SSD: 1 + rng.Int64N(1200),
			HDD: 1 + rng.Int64N(6000),
		}
		// Both stores see the same residents: writes of assorted sizes
		// (some failing on a full HDD), reads that reorder the caches, and
		// a delete.
		type op struct {
			kind int
			key  string
			size int64
		}
		var setup []op
		for i, n := 0, rng.IntN(16); i < n; i++ {
			key := fmt.Sprintf("old%d", rng.IntN(12))
			switch rng.IntN(6) {
			case 0:
				setup = append(setup, op{1, key, 0})
			case 1:
				setup = append(setup, op{2, key, 0})
			default:
				setup = append(setup, op{0, key, rng.Int64N(160)})
			}
		}
		var size int64
		switch rng.IntN(5) {
		case 0:
			size = 0
		case 1:
			size = caps[RAM]
		case 2:
			size = caps[RAM] + 1 + rng.Int64N(200)
		default:
			size = rng.Int64N(160)
		}
		keys := make([]string, rng.IntN(40))
		for i := range keys {
			keys[i] = fmt.Sprintf("new%d", i)
		}

		var stores [2]*TieredStore
		for i := range stores {
			s, err := NewTieredStore(caps, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range setup {
				switch o.kind {
				case 0:
					s.Write(o.key, o.size)
				case 1:
					s.Read(o.key)
				case 2:
					s.Delete(o.key)
				}
			}
			stores[i] = s
		}
		preloadErr := stores[0].Preload(keys, size)
		var loopErr error
		for _, k := range keys {
			if _, loopErr = stores[1].Write(k, size); loopErr != nil {
				break
			}
		}
		if fmt.Sprint(preloadErr) != fmt.Sprint(loopErr) || errors.Is(preloadErr, ErrFull) != errors.Is(loopErr, ErrFull) {
			t.Fatalf("trial %d (caps %v, %d keys of %d): Preload err %v, Write loop err %v",
				trial, caps, len(keys), size, preloadErr, loopErr)
		}
		if got, want := stateOf(t, stores[0]), stateOf(t, stores[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (caps %v, %d keys of %d):\nPreload    %+v\nWrite loop %+v",
				trial, caps, len(keys), size, got, want)
		}
	}
}

// TestPreloadRejectsOutsideContract checks the cases Preload does not model
// exactly: a TinyLFU store, a key already present and a repeated key each
// return an error and leave the store untouched.
func TestPreloadRejectsOutsideContract(t *testing.T) {
	caps := Capacities{RAM: 100, SSD: 300, HDD: 1000}
	for _, c := range []struct {
		name   string
		policy Policy
		keys   []string
	}{
		{"tinylfu", TinyLFUPolicy, []string{"a", "b"}},
		{"present", LRUPolicy, []string{"a", "x", "b"}},
		{"repeated", LRUPolicy, []string{"a", "b", "a"}},
	} {
		s, err := NewTieredStoreWithPolicy(caps, nil, c.policy)
		if err != nil {
			t.Fatal(err)
		}
		s.Write("x", 30)
		s.Write("y", 40)
		before := stateOf(t, s)
		if err := s.Preload(c.keys, 10); err == nil {
			t.Errorf("%s: Preload accepted keys outside its contract", c.name)
		}
		if after := stateOf(t, s); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: rejected Preload changed the store:\nbefore %+v\nafter  %+v", c.name, before, after)
		}
	}
}
