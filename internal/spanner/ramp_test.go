package spanner

import (
	"bytes"
	"testing"
)

// TestBootstrapValueMatchesFormula checks the ramp windows against the
// per-byte formula byte(7g + 13row + j) over a sweep of groups and rows that
// wraps the byte arithmetic, at row sizes below, at and above the ramp's
// 256-byte period. Each window must be capped so an append cannot write into
// the ramp.
func TestBootstrapValueMatchesFormula(t *testing.T) {
	for _, rowBytes := range []int64{0, 1, 255, 256, 1024} {
		cfg := smallConfig()
		cfg.RowBytes = rowBytes
		db, err := New(testEnv(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, rowBytes)
		for g := 0; g < 40; g++ {
			for row := 0; row < 600; row += 7 {
				for j := range want {
					want[j] = byte(uint64(g)*7 + uint64(row)*13 + uint64(j))
				}
				got := db.bootstrapValue(g, row)
				if !bytes.Equal(got, want) {
					t.Fatalf("RowBytes %d: bootstrapValue(%d, %d) differs from the formula", rowBytes, g, row)
				}
				if cap(got) != len(got) {
					t.Fatalf("RowBytes %d: bootstrapValue(%d, %d) has cap %d > len %d", rowBytes, g, row, cap(got), len(got))
				}
			}
		}
	}
}

var lookupSink []byte

// TestLookupVirtualRowAllocFree pins that reading a never-written row
// allocates nothing: neither the key probe nor the value.
func TestLookupVirtualRowAllocFree(t *testing.T) {
	db, err := New(testEnv(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := db.groups[1].leaderRep()
	allocs := testing.AllocsPerRun(200, func() {
		v, err := db.lookupRow(rep, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		lookupSink = v
	})
	if allocs != 0 {
		t.Fatalf("lookupRow of a virtual row: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(lookupSink, db.bootstrapValue(1, 42)) {
		t.Fatal("lookupRow of a virtual row differs from bootstrapValue")
	}
}
