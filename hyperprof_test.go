package hyperprof

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as a downstream user
// would: characterize, extract artifacts, run a limit study, validate the
// chained model.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultCharStudyConfig()
	cfg.Ops = PlatformOps{Spanner: 300, BigTable: 300, BigQuery: 40}
	ch, err := cfg.Characterize()
	if err != nil {
		t.Fatal(err)
	}
	if rows := Table1(ch); len(rows) != 3 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	fig3 := Figure3(ch)
	for _, p := range Platforms() {
		var sum float64
		for _, f := range fig3[p] {
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%s figure3 sums to %v", p, sum)
		}
	}
	fig9, err := Figure9(ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig9[Spanner]) == 0 {
		t.Fatal("no figure9 points")
	}
	t8, err := ValidateChainedModel(DefaultTable8Config())
	if err != nil {
		t.Fatal(err)
	}
	if t8.DiffFrac > 0.2 {
		t.Fatalf("validation diff %.1f%%", t8.DiffFrac*100)
	}
	if out := RenderTable8(t8); len(out) < 100 {
		t.Fatal("render too short")
	}
}

func TestModelFacade(t *testing.T) {
	sys := System{
		CPUTime: 1,
		DepTime: 0.5,
		F:       0.5,
		Components: []Component{
			{Name: "compression", Time: 0.3, Accelerated: true, Speedup: 1, Sync: 1},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	base := sys.Speedup()
	if math.Abs(base-1) > 1e-9 {
		t.Fatalf("unit speedup = %v", base)
	}
	acc := sys.WithUniformSpeedup(8)
	if acc.Speedup() <= 1 {
		t.Fatalf("accelerated speedup = %v", acc.Speedup())
	}
	for _, inv := range Invocations() {
		if s := acc.Configure(inv, nil).Speedup(); s <= 0 {
			t.Fatalf("%v speedup = %v", inv, s)
		}
	}
}
