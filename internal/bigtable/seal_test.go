package bigtable

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

func tableSizes(ssts []*sstable) []sealSizes {
	out := make([]sealSizes, len(ssts))
	for i, s := range ssts {
		out[i] = sealSizes{s.bytes, s.rawBytes}
	}
	return out
}

// TestSealSizingPinned pins SSTable sizing on DefaultConfig against
// constants recorded with the codec's original encode-and-measure path: the
// base tables, and after a fixed put sequence that drives minor and major
// compactions, the flush totals and the compacted tablets' tables. Any
// drift in how seal sizes a table fails here, not only in the benchmark's
// output check.
func TestSealSizingPinned(t *testing.T) {
	env := platform.NewEnv(1, 1)
	db, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var base []sealSizes
	for _, tab := range db.tablets {
		base = append(base, tableSizes(tab.ssts)...)
	}
	wantBase := []sealSizes{
		{3090405, 3094890}, {3090427, 3094890}, {3090439, 3094890}, {3090469, 3094890},
		{3090477, 3094890}, {3090522, 3094890}, {3090481, 3094890}, {3090453, 3094890},
	}
	if !slices.Equal(base, wantBase) {
		t.Errorf("base tables = %v\nwant %v", base, wantBase)
	}

	env.K.Go("client", func(p *sim.Proc) {
		x := uint64(7)
		for i := 0; i < 45; i++ {
			var v []byte
			if i%2 == 0 {
				v = bytes.Repeat([]byte(fmt.Sprintf("value-%d-", i)), 30)
			} else {
				v = make([]byte, 700)
				for j := range v {
					x = x*6364136223846793005 + 1442695040888963407
					v[j] = byte(x >> 40)
				}
			}
			if err := db.Put(p, nil, 3, i*37%3000, v); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				if err := db.Put(p, nil, 5, i, v[:len(v)/2]); err != nil {
					t.Error(err)
					return
				}
			}
		}
		p.Sleep(10 * time.Second) // let background compactions drain
	})
	env.K.Run()
	if db.MinorCompactions < 1 || db.MajorCompactions < 1 {
		t.Fatalf("compactions: minor=%d major=%d, want at least one of each",
			db.MinorCompactions, db.MajorCompactions)
	}
	got := fmt.Sprintf("minor=%d major=%d compressed=%d raw=%d t3=%v t5=%v",
		db.MinorCompactions, db.MajorCompactions, db.CompressedBytes, db.RawBytes,
		tableSizes(db.tablets[3].ssts), tableSizes(db.tablets[5].ssts))
	const want = "minor=5 major=1 compressed=14808 raw=20900 " +
		"t3=[{3664 4930} {3070544 3078570}] t5=[{159 1362} {3090522 3094890}]"
	if got != want {
		t.Errorf("after compactions:\n got %s\nwant %s", got, want)
	}
}

func TestRowKeyMatchesFormat(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 5}, {7, 2999}, {12, 100000}, {123456, 987654321}} {
		if got, want := rowKey(c[0], c[1]), fmt.Sprintf("t%d/k%d", c[0], c[1]); got != want {
			t.Errorf("rowKey(%d, %d) = %q, want %q", c[0], c[1], got, want)
		}
	}
}

// TestBootstrapValueMatchesSerialStream checks the four-cursor generator
// against the plain one-state-per-byte LCG it unrolls, at every length
// residue mod 4.
func TestBootstrapValueMatchesSerialStream(t *testing.T) {
	serial := func(t, i, n int) []byte {
		val := make([]byte, n)
		if n == 0 {
			return val
		}
		val[0] = byte(uint64(t)*11 + uint64(i)*17)
		x := uint64(t)*2654435761 + uint64(i)*40503 + 12345
		for j := 1; j < n; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			val[j] = byte(x >> 33)
		}
		return val
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1023, 1024, 1025, 1026} {
		for _, c := range [][2]int{{0, 0}, {3, 17}, {7, 2999}} {
			got := make([]byte, n)
			bootstrapValue(got, c[0], c[1])
			if want := serial(c[0], c[1], n); !bytes.Equal(got, want) {
				t.Fatalf("bootstrapValue(len %d, t%d, row %d) differs from the serial stream", n, c[0], c[1])
			}
		}
	}
}
