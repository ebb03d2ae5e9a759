package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"distws/internal/core"
)

// TestTraversalChecksReadEveryCell holds the ablations that compare
// node counts to their whole claim: with equal node counts, one
// premature termination among the cells fails a check that passes
// without it.
func TestTraversalChecksReadEveryCell(t *testing.T) {
	grids := map[string]*grid{}
	for i := range ablations {
		grids[ablations[i].id] = &ablations[i]
	}
	for _, id := range []string{"ablation-term", "ablation-backoff", "ablation-protocol", "ablation-aborts"} {
		g := grids[id]
		n := len(g.rows(Default))
		results := func(premature bool) runs {
			res := make(runs, n)
			for i := range res {
				res[i] = []*core.Result{{Nodes: 1000, Speedup: 10, AbortedSteals: 1}}
			}
			res[n-1][0].Premature = premature
			return res
		}
		clean, premature := g.checks(results(false), Default), g.checks(results(true), Default)
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
			t.Errorf("%s: every check passes although cell %d terminated prematurely", id, n-1)
		}
	}
}

// quickRuns holds each grid's runs at quick scale and seed 12345,
// made once per test binary: TestQuickExperiments renders its golden
// and TestGridCellsDiffer checks its cells from the same runs.
var quickRuns = map[string][]*core.Result{}

// quickGrid returns g's layout at quick scale and its runs.
func quickGrid(t *testing.T, g *grid) (rows, cols []cell, res []*core.Result) {
	t.Helper()
	rows, cols, cfgs := g.layout(Quick, 12345)
	if res = quickRuns[g.id]; res == nil {
		var err error
		if res, err = Execute(cfgs); err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		quickRuns[g.id] = res
	}
	return rows, cols, res
}

// gridByID returns the grid registered as id, nil for an experiment of
// another kind.
func gridByID(id string) *grid {
	for _, gs := range [][]grid{figures, ablations} {
		for i := range gs {
			if gs[i].id == id {
				return &gs[i]
			}
		}
	}
	return nil
}

// TestGridCellsDiffer holds every grid to cells that each change the
// run: at quick scale no two runs of a grid return equal Results. A
// knob value that changes nothing, such as a steal timeout above every
// round trip, prints its neighbour's row again and shows nothing.
func TestGridCellsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every grid at quick scale")
	}
	for _, g := range slices.Concat(figures, ablations) {
		rows, cols, res := quickGrid(t, &g)
		name := func(i int) string {
			return strings.TrimSpace(rows[i/len(cols)].label + " " + cols[i%len(cols)].label)
		}
		for i := range res {
			for j := range i {
				if reflect.DeepEqual(res[i], res[j]) {
					t.Errorf("%s: cells %q and %q return the same Result", g.id, name(j), name(i))
				}
			}
		}
	}
}
