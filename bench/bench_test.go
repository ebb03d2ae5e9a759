package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"
)

// quick runs each measurement once, without set-up probes (which would
// re-execute the test binary).
var quick = options{minReps: 1}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, smallScale, 1, quick)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted != 1 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.firstErr)
			}
			for _, u := range e2eUnits {
				// Every end-to-end metric is a time, a rate or a size:
				// finite and strictly positive.
				if v, ok := rep.metrics[u[0]]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (present %v)", u[0], v, ok)
				}
			}
		})
	}
}

func TestLayerBudgetSumsToRunSpan(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			tp, err := tracePass(w, smallScale, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tp.failed != 0 {
				t.Fatalf("%d failed reps: %v", tp.failed, tp.firstErr)
			}
			sum := tp.m["core.residual_s"]
			for _, k := range budgetTimes {
				// fault.busy_s is a difference of two replays and may dip
				// below zero; every other time is a span.
				if tp.m[k] < 0 && k != "fault.busy_s" {
					t.Errorf("%s = %v", k, tp.m[k])
				}
				sum += tp.m[k]
			}
			if span := tp.m["core.run_span_s"]; span <= 0 || math.Abs(sum-span) > 1e-9 {
				t.Errorf("Σ layers + residual = %v, run span %v", sum, span)
			}
			if _, err := newResult(tp.attempted, tp.failed, perLayerUnits, tp.m); err != nil {
				t.Error(err)
			}
			// Each workload's own layer did work; the others read 0.
			for _, own := range map[string][]string{
				"steal-8k":    {"par.windows", "par.staged_msgs", "par.speedup_vs_seq", "par.digest_equal"},
				"serve-knee":  {"serve.jobs_admitted", "serve.virt_goodput_jobs_per_s"},
				"lossy-1k":    {"fault.outcomes", "fault.compile_s"},
				"observed-1k": {"obs.events_recorded", "obs.export_mb", "obs.overhead_ratio"},
			}[w.name] {
				if tp.m[own] <= 0 {
					t.Errorf("%s = %v", own, tp.m[own])
				}
			}
			if w.name != "lossy-1k" && tp.m["fault.outcomes"] != 0 {
				t.Errorf("fault.outcomes = %v on a fault-free workload", tp.m["fault.outcomes"])
			}
			if len(tp.tr.spans) < 8 || tp.tr.spans[rootSpan].Parent != -1 {
				t.Errorf("%d spans, root parent %d", len(tp.tr.spans), tp.tr.spans[rootSpan].Parent)
			}
		})
	}
}

func TestWrongExpectedNodeCountFailsTheRep(t *testing.T) {
	w := findWorkload("closed-1k")
	p, err := setUp(w, smallScale, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.ref.Nodes++
	rep, err := timeReps(w.name, p, 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != rep.attempted || rep.failed == 0 || rep.metrics != nil {
		t.Fatalf("attempted %d, failed %d, metrics %v: a wrong reference must fail every rep", rep.attempted, rep.failed, rep.metrics)
	}
}

func TestPinnedDigestMismatchFailsTheRep(t *testing.T) {
	opt := quick
	opt.golden = "not-the-digest"
	rep, err := measure(findWorkload("closed-1k"), smallScale, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("failed %d, want 1", rep.failed)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := faultPlan(fullScale, 7), faultPlan(fullScale, 7), faultPlan(fullScale, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different fault plans")
	}
	if reflect.DeepEqual(a.Crashes, c.Crashes) {
		t.Error("different seeds, same crashes")
	}
	if len(a.Crashes) != fullScale.crashes {
		t.Errorf("%d crashes", len(a.Crashes))
	}
	crashed := map[int]bool{}
	for _, cr := range a.Crashes {
		if cr.Rank == 0 || crashed[cr.Rank] || cr.Rank == a.Stragglers[0].Rank {
			t.Errorf("crash of rank %d: rank 0, a repeat or the straggler", cr.Rank)
		}
		crashed[cr.Rank] = true
	}
	sweep := findWorkload("sweep-small")
	s1, s2 := sweep.build(fullScale, 7), sweep.build(fullScale, 8)
	if len(s1.cfgs) != 9*fullScale.sweepSeeds || s1.cfgs[0].Seed == s2.cfgs[0].Seed || s1.cfgs[0].Seed == s1.cfgs[1].Seed {
		t.Errorf("%d sweep cells, seeds %d %d %d", len(s1.cfgs), s1.cfgs[0].Seed, s1.cfgs[1].Seed, s2.cfgs[0].Seed)
	}
}

// TestNamesMatchBenchmarkJSON holds the program and the declaration at
// the repository root to each other, name by name and unit by unit.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(d.EndToEnd) != len(e2eUnits) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(d.EndToEnd), len(e2eUnits))
	}
	for i, m := range d.EndToEnd {
		if m.Name != e2eUnits[i][0] || m.Unit != e2eUnits[i][1] || !name.MatchString(m.Name) {
			t.Errorf("end-to-end %d: declared %s [%s], program %s [%s]", i, m.Name, m.Unit, e2eUnits[i][0], e2eUnits[i][1])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(d.PerLayer) != len(perLayerUnits) {
		t.Fatalf("%d per-layer metrics declared, %d in the program", len(d.PerLayer), len(perLayerUnits))
	}
	for i, m := range d.PerLayer {
		if m.Name != perLayerUnits[i][0] || m.Unit != perLayerUnits[i][1] || !name.MatchString(m.Name) {
			t.Errorf("per-layer %d: declared %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayerUnits[i][0], perLayerUnits[i][1])
		}
	}
}
