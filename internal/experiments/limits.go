package experiments

import (
	"fmt"

	"hyperprof/internal/model"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file derives analytical-model inputs from the characterization run
// (§6.1: "the values of f, t_e2e, t_sub_i, and t_dep are derived from
// Sections 4 and 5") and implements the limit studies of Figures 9, 10, 13,
// 14 and 15.

// PCIeGen5BytesPerSec is the off-chip link bandwidth the paper assumes for
// Figure 13 (4 GB/s).
const PCIeGen5BytesPerSec = 4e9

// AcceleratedCategories returns the CPU components §6.2 accelerates for a
// platform: the top datacenter taxes, top system taxes, and the platform's
// dominant core-compute operations.
func AcceleratedCategories(p taxonomy.Platform) []taxonomy.Category {
	taxes := []taxonomy.Category{
		taxonomy.Compression, taxonomy.Protobuf, taxonomy.RPC,
		taxonomy.STL, taxonomy.OperatingSystems,
	}
	if p == taxonomy.BigQuery {
		return append(taxes, taxonomy.Filter, taxonomy.Compute, taxonomy.Aggregate, taxonomy.MiscCore)
	}
	return append(taxes, taxonomy.Read, taxonomy.Write, taxonomy.Compaction, taxonomy.MiscCore)
}

// categoryFraction returns a category's fraction of the platform's total CPU
// cycles (broad fraction times within-broad fraction).
func (ch *Characterization) categoryFraction(p taxonomy.Platform, cat taxonomy.Category) float64 {
	broad := taxonomy.BroadOf(cat)
	bb := ch.Prof(p).BroadBreakdown(p)
	cb := ch.Prof(p).CategoryBreakdown(p, broad)
	return bb[broad] * cb[cat]
}

// DeriveSystem builds the model input for a platform from the observed
// traces (mean per-query CPU and dependency time, measured overlap factor)
// and the observed profile (per-component CPU fractions). Components start
// unit-speedup, synchronous and on-chip; the sweeps reconfigure them.
func (ch *Characterization) DeriveSystem(p taxonomy.Platform) (model.System, error) {
	traces := ch.Traces[p]
	if len(traces) == 0 {
		return model.System{}, fmt.Errorf("experiments: no traces for %s", p)
	}
	var cpuSum, depSum float64
	for _, t := range traces {
		o := t.ComputeOverlap()
		cpuSum += o.CPUUnion.Seconds()
		depSum += o.DepUnion.Seconds()
	}
	n := float64(len(traces))
	sys := model.System{
		CPUTime:   cpuSum / n,
		DepTime:   depSum / n,
		F:         trace.MeanF(traces),
		Bandwidth: PCIeGen5BytesPerSec,
	}
	for _, cat := range AcceleratedCategories(p) {
		frac := ch.categoryFraction(p, cat)
		if frac <= 0 {
			continue
		}
		sys.Components = append(sys.Components, model.Component{
			Name:        string(cat),
			Time:        sys.CPUTime * frac,
			Accelerated: true,
			Speedup:     1,
			Sync:        1,
		})
	}
	if err := sys.Validate(); err != nil {
		return model.System{}, err
	}
	return sys, nil
}

// DeriveGroupSystem is DeriveSystem restricted to one Figure 2 query group.
func (ch *Characterization) DeriveGroupSystem(p taxonomy.Platform, g trace.Group) (model.System, error) {
	var subset []*trace.Trace
	for _, t := range ch.Traces[p] {
		if trace.GroupOf(t.ComputeBreakdown()) == g {
			subset = append(subset, t)
		}
	}
	if len(subset) == 0 {
		return model.System{}, fmt.Errorf("experiments: no %q traces for %s", g, p)
	}
	saved := ch.Traces[p]
	ch.Traces[p] = subset
	defer func() { ch.Traces[p] = saved }()
	return ch.DeriveSystem(p)
}

// SpeedupSweep is the per-accelerator speedup axis of Figures 9 and 10.
var SpeedupSweep = []float64{1, 2, 4, 8, 16, 24, 32, 48, 64}

// Fig9Point is one point of Figure 9.
type Fig9Point struct {
	Speedup    float64
	WithDep    float64 // upper-bound e2e speedup keeping remote work and IO
	WithoutDep float64 // with non-CPU dependencies removed (co-design)
}

// Figure9 reproduces the synchronous on-chip upper-bound study.
func Figure9(ch *Characterization) (map[taxonomy.Platform][]Fig9Point, error) {
	out := map[taxonomy.Platform][]Fig9Point{}
	for _, p := range taxonomy.Platforms() {
		sys, err := ch.DeriveSystem(p)
		if err != nil {
			return nil, err
		}
		base := sys.Configure(model.SyncOnChip, nil)
		noDep := base.WithoutDependencies()
		// Both curves are speedups over the *original* end-to-end time, so
		// dependency removal shows as an immediate jump at 1x, as in the
		// paper's right/left panel comparison.
		origE2E := sys.BaselineE2E()
		var pts []Fig9Point
		for _, s := range SpeedupSweep {
			pts = append(pts, Fig9Point{
				Speedup:    s,
				WithDep:    origE2E / base.WithUniformSpeedup(s).AcceleratedE2E(),
				WithoutDep: origE2E / noDep.WithUniformSpeedup(s).AcceleratedE2E(),
			})
		}
		out[p] = pts
	}
	return out, nil
}

// Fig10Series is one query group's sweep for one platform.
type Fig10Series struct {
	Group  trace.Group
	Points []Fig9Point // WithoutDep carries the Figure 10 value
}

// Figure10 reproduces the grouped synchronous on-chip upper bounds (remote
// work and IO removed). Groups with no queries are omitted, as in the paper
// (not every platform populates every group).
func Figure10(ch *Characterization) (map[taxonomy.Platform][]Fig10Series, error) {
	out := map[taxonomy.Platform][]Fig10Series{}
	for _, p := range taxonomy.Platforms() {
		for _, g := range trace.Groups() {
			if g == trace.GroupOverall {
				continue
			}
			sys, err := ch.DeriveGroupSystem(p, g)
			if err != nil {
				continue // empty group
			}
			noDep := sys.Configure(model.SyncOnChip, nil).WithoutDependencies()
			origE2E := sys.BaselineE2E()
			s := Fig10Series{Group: g}
			for _, sp := range SpeedupSweep {
				s.Points = append(s.Points, Fig9Point{
					Speedup:    sp,
					WithoutDep: origE2E / noDep.WithUniformSpeedup(sp).AcceleratedE2E(),
				})
			}
			out[p] = append(out[p], s)
		}
	}
	return out, nil
}

// Fig13Speedup is the per-accelerator speedup used in the feature study.
const Fig13Speedup = 8

// Fig13Row is one additive step of Figure 13: the named component joins the
// accelerated set and all four invocation models are evaluated.
type Fig13Row struct {
	Label    string // e.g. "Compression" then "+ Protobuf" ...
	Speedups map[model.Invocation]float64
}

// Figure13 reproduces the accelerator feature upper bounds: accelerators are
// added datacenter-tax first, then system-tax, then core compute; each
// prefix is evaluated under the four invocation models. Off-chip payloads
// use the platform's measured mean bytes per query over PCIe Gen5.
func Figure13(ch *Characterization) (map[taxonomy.Platform][]Fig13Row, error) {
	out := map[taxonomy.Platform][]Fig13Row{}
	for _, p := range taxonomy.Platforms() {
		sys, err := ch.DeriveSystem(p)
		if err != nil {
			return nil, err
		}
		sys = sys.WithUniformSpeedup(Fig13Speedup)
		offBytes := map[string]float64{}
		for _, c := range sys.Components {
			offBytes[c.Name] = ch.QueryBytes[p]
		}
		var active []string
		var rows []Fig13Row
		for i, cat := range AcceleratedCategories(p) {
			active = append(active, string(cat))
			label := string(cat)
			if i > 0 {
				label = "+ " + label
			}
			row := Fig13Row{Label: label, Speedups: map[model.Invocation]float64{}}
			subset := sys.AccelerateOnly(active...)
			for _, inv := range model.Invocations() {
				row.Speedups[inv] = subset.Configure(inv, offBytes).Speedup()
			}
			rows = append(rows, row)
		}
		out[p] = rows
	}
	return out, nil
}

// SetupSweep is the Figure 14 setup-time axis in seconds.
var SetupSweep = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2}

// Fig14Point is one setup value's speedups under the four configurations.
type Fig14Point struct {
	SetupSeconds float64
	Speedups     map[model.Invocation]float64
}

// Figure14 reproduces the setup-time sweep at 8x per-accelerator speedup.
func Figure14(ch *Characterization) (map[taxonomy.Platform][]Fig14Point, error) {
	out := map[taxonomy.Platform][]Fig14Point{}
	for _, p := range taxonomy.Platforms() {
		sys, err := ch.DeriveSystem(p)
		if err != nil {
			return nil, err
		}
		sys = sys.WithUniformSpeedup(Fig13Speedup)
		offBytes := map[string]float64{}
		for _, c := range sys.Components {
			offBytes[c.Name] = ch.QueryBytes[p]
		}
		var pts []Fig14Point
		for _, setup := range SetupSweep {
			withSetup := sys.WithSetup(setup)
			pt := Fig14Point{SetupSeconds: setup, Speedups: map[model.Invocation]float64{}}
			for _, inv := range model.Invocations() {
				pt.Speedups[inv] = withSetup.Configure(inv, offBytes).Speedup()
			}
			pts = append(pts, pt)
		}
		out[p] = pts
	}
	return out, nil
}

// PriorAccel is one published accelerator used in Figure 15. Speedups are
// the peak values reported by the cited works for their operation
// (approximate where the paper does not restate them); setup time is zeroed
// for uniformity, as in §6.3.4.
type PriorAccel struct {
	Name       string
	Categories []taxonomy.Category
	Speedup    float64
}

// PriorAccelerators returns the Figure 15 accelerator roster for a platform.
func PriorAccelerators(p taxonomy.Platform) []PriorAccel {
	var core []taxonomy.Category
	if p == taxonomy.BigQuery {
		core = []taxonomy.Category{taxonomy.Filter, taxonomy.Compute, taxonomy.Aggregate, taxonomy.MiscCore}
	} else {
		core = []taxonomy.Category{taxonomy.Read, taxonomy.Write, taxonomy.Compaction, taxonomy.MiscCore}
	}
	return []PriorAccel{
		{Name: "Compression (IBM z15)", Categories: []taxonomy.Category{taxonomy.Compression}, Speedup: 40},
		{Name: "Mem. Alloc (Mallacc)", Categories: []taxonomy.Category{taxonomy.MemAllocation}, Speedup: 2.1},
		{Name: "Protobuf (ProtoAcc)", Categories: []taxonomy.Category{taxonomy.Protobuf}, Speedup: 15},
		{Name: "RPC (Cerebros)", Categories: []taxonomy.Category{taxonomy.RPC}, Speedup: 12},
		{Name: "Core Ops (Q100)", Categories: core, Speedup: 10},
	}
}

// Fig15Row is one accelerator (or the combination) under synchronous and
// chained on-chip execution.
type Fig15Row struct {
	Label   string
	Sync    float64
	Chained float64
}

// Figure15 reproduces the prior-accelerator comparison: each published
// accelerator individually, then all combined, under Sync + On-Chip and
// Chained + On-Chip.
func Figure15(ch *Characterization) (map[taxonomy.Platform][]Fig15Row, error) {
	out := map[taxonomy.Platform][]Fig15Row{}
	for _, p := range taxonomy.Platforms() {
		// Rebuild the component list to include every prior-accelerator
		// category (mem-alloc is not in the §6.2 set).
		sys, err := ch.DeriveSystem(p)
		if err != nil {
			return nil, err
		}
		sys = addComponent(sys, ch, p, taxonomy.MemAllocation)
		roster := PriorAccelerators(p)
		speedupOf := map[string]float64{}
		for _, a := range roster {
			for _, cat := range a.Categories {
				speedupOf[string(cat)] = a.Speedup
			}
		}
		applySpeedups := func(s model.System) model.System {
			o := s.Clone()
			for i := range o.Components {
				if sp, ok := speedupOf[o.Components[i].Name]; ok && o.Components[i].Accelerated {
					o.Components[i].Speedup = sp
				}
			}
			return o
		}
		var rows []Fig15Row
		var all []string
		for _, a := range roster {
			var names []string
			for _, cat := range a.Categories {
				names = append(names, string(cat))
			}
			all = append(all, names...)
			solo := applySpeedups(sys.AccelerateOnly(names...))
			rows = append(rows, Fig15Row{
				Label:   a.Name,
				Sync:    solo.Configure(model.SyncOnChip, nil).Speedup(),
				Chained: solo.Configure(model.ChainedOnChip, nil).Speedup(),
			})
		}
		combined := applySpeedups(sys.AccelerateOnly(all...))
		rows = append(rows, Fig15Row{
			Label:   "Combined",
			Sync:    combined.Configure(model.SyncOnChip, nil).Speedup(),
			Chained: combined.Configure(model.ChainedOnChip, nil).Speedup(),
		})
		out[p] = rows
	}
	return out, nil
}

// addComponent appends a category component to a derived system if it has
// observable CPU time and is not already present.
func addComponent(sys model.System, ch *Characterization, p taxonomy.Platform, cat taxonomy.Category) model.System {
	for _, c := range sys.Components {
		if c.Name == string(cat) {
			return sys
		}
	}
	frac := ch.categoryFraction(p, cat)
	if frac <= 0 {
		return sys
	}
	out := sys.Clone()
	out.Components = append(out.Components, model.Component{
		Name:        string(cat),
		Time:        sys.CPUTime * frac,
		Accelerated: true,
		Speedup:     1,
		Sync:        1,
	})
	return out
}
