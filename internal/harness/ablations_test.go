package harness

import (
	"testing"

	"distws/internal/core"
)

// TestTraversalChecksReadEveryCell holds the ablations that compare
// node counts to their whole claim: with equal node counts, one
// premature termination among the cells fails a check that passes
// without it.
func TestTraversalChecksReadEveryCell(t *testing.T) {
	rows := map[string]*ablation{}
	for i := range ablations {
		rows[ablations[i].id] = &ablations[i]
	}
	for _, id := range []string{"ablation-term", "ablation-backoff", "ablation-protocol", "ablation-aborts"} {
		a := rows[id]
		results := func(premature bool) []*core.Result {
			res := make([]*core.Result, len(a.cells))
			for i := range res {
				res[i] = &core.Result{Nodes: 1000, Speedup: 10, AbortedSteals: 1}
			}
			res[len(res)-1].Premature = premature
			return res
		}
		clean, premature := a.checks(results(false), Default), a.checks(results(true), Default)
		failed := 0
		for i, c := range clean {
			if !c.Pass {
				t.Errorf("%s: %q fails on equal, complete traversals (%s)", id, c.Desc, c.Detail)
			}
			if !premature[i].Pass {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("%s: every check passes although cell %d terminated prematurely", id, len(a.cells)-1)
		}
	}
}
