package check

import (
	"fmt"
	"testing"
	"time"

	"hyperprof/internal/stats"
)

// This file cross-checks the checkers against brute-force oracles on small
// seeded random histories. An oracle enumerates every real-time-respecting
// order of a history's operations, with no memoization, no per-key split and
// no shrinking, so it shares no search logic with the checker it judges.

// oracleHistories is how many random histories each differential test draws.
const oracleHistories = 2000

// precedes reports whether a must come before b in every real-time-respecting
// order: a returned strictly before b was invoked. Only an operation with a
// known return can precede anything; an included indeterminate write may
// take effect at any point after its invocation.
func precedes(a, b *Op) bool { return a.Outcome == OutcomeOK && a.Return < b.Invoke }

// orders calls legal on every real-time-respecting order of ops, extending
// one prefix at a time, and reports whether some complete order was accepted.
// legal sees the prefix so far and its newest element; returning false cuts
// every order that starts with that prefix.
func orders(ops []*Op, legal func(prefix []*Op) bool) bool {
	placed := make([]bool, len(ops))
	prefix := make([]*Op, 0, len(ops))
	var extend func() bool
	extend = func() bool {
		if len(prefix) == len(ops) {
			return true
		}
	next:
		for i, b := range ops {
			if placed[i] {
				continue
			}
			for j, a := range ops {
				if !placed[j] && j != i && precedes(a, b) {
					continue next
				}
			}
			placed[i] = true
			prefix = append(prefix, b)
			ok := legal(prefix) && extend()
			prefix = prefix[:len(prefix)-1]
			placed[i] = false
			if ok {
				return true
			}
		}
		return false
	}
	return extend()
}

// oracleLinearizable reports whether h is linearizable over per-key atomic
// registers. OK reads and writes are always included; each indeterminate
// write is tried both included and left out; failed operations and reads
// that returned no value impose no constraint.
func oracleLinearizable(h *History) bool {
	var must, maybe []*Op
	for _, op := range h.Ops() {
		switch {
		case op.Outcome == OutcomeOK:
			must = append(must, op)
		case op.Kind == "write" && op.Outcome != OutcomeFailed:
			maybe = append(maybe, op)
		}
	}
	for subset := 0; subset < 1<<len(maybe); subset++ {
		ops := append([]*Op(nil), must...)
		for i, op := range maybe {
			if subset&(1<<i) != 0 {
				ops = append(ops, op)
			}
		}
		if orders(ops, func(prefix []*Op) bool {
			last := prefix[len(prefix)-1]
			if last.Kind == "write" {
				return true
			}
			// Replay the prefix: a read returns the latest write to its key.
			val := h.initials[last.Key]
			for _, op := range prefix[:len(prefix)-1] {
				if op.Kind == "write" && op.Key == last.Key {
					val = op.Arg
				}
			}
			return last.Ret == val
		}) {
			return true
		}
	}
	return false
}

// oracleExternallyConsistent reports whether h's timestamped OK operations
// admit a real-time-respecting order in which commit timestamps never
// decrease and equal timestamps are shared only by concurrent operations.
// Operations without a timestamp, failed or not, impose no constraint.
func oracleExternallyConsistent(h *History) bool {
	var ops []*Op
	for _, op := range h.Ops() {
		if op.Outcome == OutcomeOK && op.HasTS {
			ops = append(ops, op)
		}
	}
	return orders(ops, func(prefix []*Op) bool {
		last := prefix[len(prefix)-1]
		for _, op := range prefix[:len(prefix)-1] {
			if op.TS > last.TS || op.TS == last.TS && precedes(op, last) {
				return false
			}
		}
		return true
	})
}

// randomRegisterHistory draws up to 7 read/write operations over 1–2 keys
// with OK, failed and indeterminate outcomes. Times and values come from
// small ranges so operations overlap, tie and read each other's writes.
func randomRegisterHistory(rng *stats.RNG) *History {
	b := newBuilder()
	keys := []string{"k0", "k1"}[:1+rng.Intn(2)]
	for _, k := range keys {
		if rng.Bool(0.5) {
			b.h.Initial(k, uint64(rng.Intn(3)))
		}
	}
	n := 1 + rng.Intn(7)
	for i := 0; i < n; i++ {
		inv := time.Duration(rng.Intn(8)) * ms
		ret := inv + time.Duration(rng.Intn(4))*ms
		outcome := OutcomeOK
		switch r := rng.Intn(10); {
		case r == 0:
			outcome = OutcomeFailed
		case r <= 2:
			outcome = OutcomeIndeterminate
		}
		key := keys[rng.Intn(len(keys))]
		if rng.Bool(0.5) {
			b.op(inv, ret, fmt.Sprintf("c%d", i), "write", key, uint64(1+rng.Intn(3)), outcome, 0)
		} else {
			b.op(inv, ret, fmt.Sprintf("c%d", i), "read", key, 0, outcome, uint64(rng.Intn(4)))
		}
	}
	return b.run()
}

// randomTimestampedHistory draws up to 7 operations, most of them
// timestamped commits whose timestamps stray a little outside their
// invoke/return window, plus untimestamped OK, failed and indeterminate
// operations the check must ignore.
func randomTimestampedHistory(rng *stats.RNG) *History {
	b := newBuilder()
	keys := []string{"k0", "k1"}[:1+rng.Intn(2)]
	n := 1 + rng.Intn(7)
	for i := 0; i < n; i++ {
		inv := time.Duration(rng.Intn(8)) * ms
		ret := inv + time.Duration(rng.Intn(4))*ms
		client, key := fmt.Sprintf("c%d", i), keys[rng.Intn(len(keys))]
		if rng.Bool(0.8) {
			ts := inv - 2*ms + time.Duration(rng.Intn(int((ret-inv)/ms)+5))*ms
			b.opAt(inv, ret, client, "write", key, uint64(i), ts)
			continue
		}
		b.op(inv, ret, client, "write", key, uint64(i), []Outcome{OutcomeOK, OutcomeFailed, OutcomeIndeterminate}[rng.Intn(3)], 0)
	}
	return b.run()
}

// differential draws oracleHistories histories from gen and requires the
// checker's verdict (no violations) to match the oracle's on every one. Both
// verdicts must occur often, or the comparison says little.
func differential(t *testing.T, seed uint64, gen func(*stats.RNG) *History,
	checker func(*History) []Violation, oracle func(*History) bool) {
	t.Helper()
	rng := stats.NewRNG(seed)
	clean := 0
	for i := 0; i < oracleHistories; i++ {
		h := gen(rng)
		vs := checker(h)
		want := oracle(h)
		if got := len(vs) == 0; got != want {
			t.Fatalf("history %d: checker says clean=%v, brute-force oracle says %v:\n%s\nchecker findings: %v",
				i, got, want, FormatOps(h.Ops()), vs)
		}
		if want {
			clean++
		}
	}
	t.Logf("%d of %d histories clean", clean, oracleHistories)
	if clean < oracleHistories/10 || clean > oracleHistories*9/10 {
		t.Fatalf("%d of %d histories clean: the generator no longer exercises both verdicts", clean, oracleHistories)
	}
}

func TestLinearizabilityMatchesBruteForceOracle(t *testing.T) {
	differential(t, 1, randomRegisterHistory, (*History).CheckLinearizability, oracleLinearizable)
}

func TestExternalConsistencyMatchesBruteForceOracle(t *testing.T) {
	differential(t, 2, randomTimestampedHistory, (*History).CheckExternalConsistency, oracleExternallyConsistent)
}
