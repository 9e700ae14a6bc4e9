package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/platform"
	"hyperprof/internal/spanner"
)

// probeRepeats is how many fresh constructions the probe times per
// platform; it reports their median.
const probeRepeats = 5

// constructors call each platform's public constructor on a fresh
// environment. Building the environment is not timed.
var constructors = map[string]func(env *platform.Env) error{
	"bigtable.new_ms": func(env *platform.Env) error { _, err := bigtable.New(env, bigtable.DefaultConfig()); return err },
	"spanner.new_ms":  func(env *platform.Env) error { _, err := spanner.New(env, spanner.DefaultConfig()); return err },
	"bigquery.new_ms": func(env *platform.Env) error { _, err := bigquery.New(env, bigquery.DefaultConfig()); return err },
}

// serveProbe times the platform constructors and writes the medians, in
// milliseconds, to stdout as one JSON object.
func serveProbe(seed uint64) error {
	out := map[string]float64{}
	for name, build := range constructors {
		ms := make([]float64, probeRepeats)
		for i := range ms {
			env := platform.NewEnv(seed, 1)
			start := time.Now()
			if err := build(env); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		out[name] = median(ms)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
