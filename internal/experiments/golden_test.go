package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// goldenPath holds one "<study> <sha256>" line per study export.
var goldenPath = filepath.Join("testdata", "golden_digests.txt")

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this tree's exports")

// goldenExports maps each study to a function producing its canonical export
// at a fixed small size. The sizes do not depend on -short, so `go test` and
// `go test -short` check the same digests.
var goldenExports = map[string]func(t *testing.T) []byte{
	"char": func(t *testing.T) []byte {
		cfg := DefaultCharStudyConfig()
		cfg.Ops = PlatformOps{Spanner: 120, BigTable: 120, BigQuery: 24}
		ch, err := cfg.Characterize()
		if err != nil {
			t.Fatal(err)
		}
		return charBytes(t, ch)
	},
	"safety": func(t *testing.T) []byte {
		cfg := DefaultSafetyStudyConfig()
		cfg.Check.Seeds = 2
		cfg.Ops = PlatformOps{Spanner: 60, BigTable: 60, BigQuery: 6}
		s, err := cfg.Safety()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(RenderSafety(s))
		for _, p := range taxonomy.Platforms() {
			fmt.Fprintf(&buf, "%s marks: %+v\n", p, s.Marks[p])
		}
		return buf.Bytes()
	},
	"resilience": func(t *testing.T) []byte {
		cfg := DefaultResilienceStudyConfig()
		cfg.Ops = PlatformOps{Spanner: 100, BigTable: 100, BigQuery: 12}
		cfg.Obs.Enabled = true
		r, err := cfg.Resilience()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(RenderResilience(r))
		for _, p := range taxonomy.Platforms() {
			chrome, err := trace.ExportChrome(r.Traces[p], 2000)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(chrome)
			fmt.Fprintf(&buf, "%s marks: %+v\n", p, r.Marks[p])
		}
		series, err := MarshalPlatformSeries(r.Series)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(series)
		return buf.Bytes()
	},
	"obs": func(t *testing.T) []byte {
		cfg := DefaultObsStudyConfig()
		cfg.Ops = PlatformOps{Spanner: 100, BigTable: 100, BigQuery: 12}
		o, err := cfg.Observe()
		if err != nil {
			t.Fatal(err)
		}
		data, err := o.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b := trace.NewChromeBuilder()
		b.AddCounters(o.CounterTracks())
		chrome, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return append(append(data, chrome...), RenderObs(o)...)
	},
	"overload": func(t *testing.T) []byte {
		cfg := DefaultOverloadStudyConfig()
		cfg.Load.Duration = 600 * time.Millisecond
		cfg.Load.TriggerAt = 200 * time.Millisecond
		cfg.Load.TriggerDur = 120 * time.Millisecond
		cfg.Load.SpannerRate = 800
		cfg.Load.BigTableRate = 1200
		cfg.Load.BigQueryRate = 40
		o, err := cfg.Overload()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := o.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return append(doc, RenderOverload(o)...)
	},
	"partition": func(t *testing.T) []byte {
		cfg := DefaultPartitionStudyConfig()
		cfg.Check.Seeds = 1
		cfg.Clients = 4
		cfg.Ops = PlatformOps{Spanner: 80, BigTable: 80, BigQuery: 8}
		cfg.Part.IncludeBroken = true
		s, err := cfg.Partition()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(RenderPartition(s))
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		for _, p := range taxonomy.Platforms() {
			fmt.Fprintf(&buf, "%s marks: %+v\n", p, s.Marks[p])
		}
		return buf.Bytes()
	},
	"fleet": func(t *testing.T) []byte {
		cfg := DefaultFleetStudyConfig()
		cfg.Fleet.Servers = 60
		cfg.Fleet.Users = 10_000
		cfg.Fleet.Ops = 900
		cfg.Fleet.Duration = 500 * time.Millisecond
		st, err := cfg.FleetScale()
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalFleet(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	},
	"pipeline": func(t *testing.T) []byte {
		cfg := DefaultPipelineStudyConfig()
		cfg.Pipe = PipelineConfig{Records: 12, Batches: 3, Iterations: 2, IncludeBroken: true}
		cfg.Check.Seeds = 1
		s, err := cfg.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		return pipelineExport(t, s)
	},
	"latency": func(t *testing.T) []byte {
		points, err := StudyConfig{Seed: 1}.Latency([]float64{400, 800, 1200}, 80)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return append(data, RenderLatency(points)...)
	},
}

// TestGoldenExportDigests pins every study's canonical export across commits:
// a refactor that shifts one byte of any export fails here. A change that
// means to move outputs regenerates the digests and says why:
//
//	go test ./internal/experiments -run TestGoldenExportDigests -update-golden
func TestGoldenExportDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		f, err := os.Open(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = sum
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(goldenExports))
	for name := range goldenExports {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make([]string, len(names))
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256(goldenExports[name](t))
			got[i] = hex.EncodeToString(sum[:])
			if !*updateGolden && got[i] != want[name] {
				t.Errorf("%s export digest %s, golden %s", name, got[i], want[name])
			}
		})
	}
	if *updateGolden {
		var b strings.Builder
		for i, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[i])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
