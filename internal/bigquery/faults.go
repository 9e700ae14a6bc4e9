package bigquery

import (
	"fmt"

	"hyperprof/internal/faults"
)

// RegisterFaultTargets registers every shuffle server on eng as
// "bigquery/ss<i>" (crash, recover, slowdown) and then every DFS chunkserver
// as "bigquery/cs<i>" (crash, recover), and returns the names in that order.
func (e *Engine) RegisterFaultTargets(eng *faults.Engine) []string {
	// The indices come from the deployment's own sizes, so the actions'
	// out-of-range errors cannot occur.
	var names []string
	for i := range e.cfg.ShuffleServers {
		name := fmt.Sprintf("bigquery/ss%d", i)
		names = append(names, name)
		eng.Register(name, faults.Actions{
			Crash:       func() { _ = e.FailShuffleServer(i) },
			Recover:     func() { _ = e.RecoverShuffleServer(i) },
			SetSlowdown: func(f float64) { _ = e.SetShuffleSlowdown(i, f) },
		})
	}
	for i := range e.cfg.Chunkservers {
		name := fmt.Sprintf("bigquery/cs%d", i)
		names = append(names, name)
		eng.Register(name, faults.Actions{
			Crash:   func() { _ = e.dfs.FailServer(i) },
			Recover: func() { _ = e.dfs.RecoverServer(i) },
		})
	}
	return names
}

// CrashTargets names the crash-eligible components: the even shuffle
// servers, then chunkserver cs0. The odd shuffle servers always survive, so
// puts always have a live destination; slots lost with a crashed server are
// speculatively re-executed.
func (e *Engine) CrashTargets() []string {
	var names []string
	for i := 0; i < e.cfg.ShuffleServers; i += 2 {
		names = append(names, fmt.Sprintf("bigquery/ss%d", i))
	}
	return append(names, "bigquery/cs0")
}
