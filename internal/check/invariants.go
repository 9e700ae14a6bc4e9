package check

import "time"

// Registry holds standing invariants: named predicates over a deployment's
// internal state that must hold at every quiescent point. Platforms register
// closures (quorum intersection, commit-index monotonicity, tablet ownership
// uniqueness, replica consistency); harnesses and tests call Check after a
// run — or at any quiet instant during one — and treat a non-empty result as
// a safety failure.
type Registry struct {
	invs []inv
}

type inv struct {
	name  string
	check func() []string
}

// Register adds a named invariant. check returns one detail string per
// breach (empty or nil means the invariant holds).
func (r *Registry) Register(name string, check func() []string) {
	r.invs = append(r.invs, inv{name: name, check: check})
}

// Check runs every invariant and converts breaches into violations stamped
// with the given virtual time.
func (r *Registry) Check(at time.Duration) []Violation {
	var out []Violation
	for _, v := range r.invs {
		for _, detail := range v.check() {
			out = append(out, Violation{
				Kind:   "invariant",
				Key:    v.name,
				Detail: v.name + ": " + detail,
				At:     at,
			})
		}
	}
	return out
}
