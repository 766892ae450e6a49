package sched

import (
	"cpsdyn/internal/conc"
)

// BatchSpec is one fleet's allocation request inside a batch. Race selects
// the concurrent policy race (AllocateRace over DefaultRacePolicies) instead
// of the single Policy.
type BatchSpec struct {
	Apps   []*App
	Policy Policy
	Race   bool
	Method Method
}

// Allocate runs the fleet's allocation: the policy race when Race is set,
// the single Policy otherwise.
func (s BatchSpec) Allocate() (*Allocation, error) {
	if s.Race {
		return AllocateRace(s.Apps, nil, s.Method)
	}
	return Allocate(s.Apps, s.Policy, s.Method)
}

// BatchResult pairs one fleet's allocation with its error; exactly one of
// the two fields is set.
type BatchResult struct {
	Alloc *Allocation
	Err   error
}

// AllocateBatch allocates many independent fleets concurrently across a
// bounded worker pool (workers ≤ 0 selects runtime.GOMAXPROCS). Results keep
// the input order, and one fleet's failure never affects the others — the
// per-fleet error travels in its BatchResult. Each fleet is allocated by
// BatchSpec.Allocate, the same dispatch the service's allocate rows run.
func AllocateBatch(specs []BatchSpec, workers int) []BatchResult {
	out := make([]BatchResult, len(specs))
	conc.ForEach(len(specs), workers, func(i int) {
		out[i].Alloc, out[i].Err = specs[i].Allocate()
	})
	return out
}
