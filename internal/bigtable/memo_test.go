package bigtable

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"hyperprof/internal/bloom"
	"hyperprof/internal/platform"
	"hyperprof/internal/storage"
)

// clearBaseSizes empties the process-wide base-size memo, so the next New
// seals its base tables cold.
func clearBaseSizes() {
	baseSizes.Lock()
	clear(baseSizes.m)
	baseSizes.Unlock()
}

// baseState is what one deployment's bootstrap leaves behind: each tablet's
// base-table sizes and filter, and each chunkserver's per-tier usage and
// stats.
type baseState struct {
	sizes   []sealSizes
	filters []*bloom.Filter
	used    []int64
	stats   []storage.TierStats
}

func bootstrapState(cfg Config) (*DB, baseState, error) {
	db, err := New(platform.NewEnv(1, 1), cfg)
	if err != nil {
		return nil, baseState{}, err
	}
	var st baseState
	for _, tab := range db.tablets {
		base := tab.ssts[0]
		st.sizes = append(st.sizes, sealSizes{base.bytes, base.rawBytes})
		st.filters = append(st.filters, base.filter)
	}
	for _, srv := range db.dfs.Servers() {
		for _, tier := range storage.Tiers() {
			st.used = append(st.used, srv.Used(tier))
			st.stats = append(st.stats, srv.Stats(tier))
		}
	}
	return db, st, nil
}

// TestBaseSizeMemoHitMatchesColdSeal seals each config's base tables cold,
// then, with the memo warm from all of them, builds each again and requires
// identical base tables — sizes, Bloom bits and DFS usage — for the default
// config, the fleet study's 32-row tablets and a non-default value size.
// The cold tables must also match filters built in sorted key order, as
// sealing used to build them, and sizes computed without the memo.
func TestBaseSizeMemoHitMatchesColdSeal(t *testing.T) {
	small := DefaultConfig()
	small.RowsPerTablet = 32
	wide := DefaultConfig()
	wide.ValueBytes = 300
	names := []string{"default", "rows32", "value300"}
	cfgs := []Config{DefaultConfig(), small, wide}
	coldDBs := make([]*DB, len(cfgs))
	colds := make([]baseState, len(cfgs))
	for i, cfg := range cfgs {
		clearBaseSizes()
		db, st, err := bootstrapState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		coldDBs[i], colds[i] = db, st
	}
	for _, cfg := range cfgs {
		if _, _, err := bootstrapState(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for c, cfg := range cfgs {
		name, coldDB, cold := names[c], coldDBs[c], colds[c]
		hitDB, hit, err := bootstrapState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cap(coldDB.sealBuf.raw) == 0 || cap(hitDB.sealBuf.raw) != 0 {
			t.Fatalf("%s: cold build sized %d bytes, memo build %d; want the memo build to skip sizing",
				name, cap(coldDB.sealBuf.raw), cap(hitDB.sealBuf.raw))
		}
		if !reflect.DeepEqual(cold, hit) {
			t.Errorf("%s: memo-hit bootstrap differs from a cold seal:\ncold %v %v %v\nhit  %v %v %v",
				name, cold.sizes, cold.used, cold.stats, hit.sizes, hit.used, hit.stats)
		}
		for i, tab := range coldDB.tablets {
			keys := make([]string, 0, len(tab.ssts[0].data))
			for k := range tab.ssts[0].data {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			sorted := bloom.New(len(keys)+1, 0.01)
			for _, k := range keys {
				sorted.Add(k)
			}
			if !reflect.DeepEqual(cold.filters[i], sorted) {
				t.Errorf("%s: tablet %d filter differs from a sorted-order build", name, i)
			}
			if sz := sizeOf(tab.ssts[0].data, &sealScratch{}); sz != cold.sizes[i] {
				t.Errorf("%s: tablet %d sizes %v, want %v sized directly", name, i, cold.sizes[i], sz)
			}
		}
	}
}

// TestBaseSizeMemoConcurrentNew builds one config from several goroutines
// at once on an empty memo; every deployment must match a cold build made
// alone. Run it under -race: the memo is the one state deployments share.
func TestBaseSizeMemoConcurrentNew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowsPerTablet = 300
	clearBaseSizes()
	_, want, err := bootstrapState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clearBaseSizes()
	const builders = 4
	got := make([]baseState, builders)
	errs := make([]error, builders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i], errs[i] = bootstrapState(cfg)
		}()
	}
	wg.Wait()
	for i, st := range got {
		if errs[i] != nil {
			t.Fatalf("builder %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("builder %d: bootstrap differs from a lone cold build: sizes %v, want %v", i, st.sizes, want.sizes)
		}
	}
}
