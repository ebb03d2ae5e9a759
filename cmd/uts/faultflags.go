package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"distws/internal/fault"
	"distws/internal/sim"
)

// parseCrashSpec parses the -crash flag: a comma-separated list of
// rank@time entries, e.g. "3@40us,11@2ms", each rank at most once.
// Times are virtual times since the start of the run, in
// time.ParseDuration syntax.
func parseCrashSpec(spec string) ([]fault.Crash, error) {
	var crashes []fault.Crash
	seen := map[int]bool{}
	for _, entry := range strings.Split(spec, ",") {
		rank, at, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("crash %q: want rank@time (e.g. 3@40us)", entry)
		}
		r, err := strconv.Atoi(rank)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("crash %q: bad rank %q", entry, rank)
		}
		if seen[r] {
			return nil, fmt.Errorf("crash %q: rank %d crashes twice", entry, r)
		}
		seen[r] = true
		d, err := time.ParseDuration(at)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("crash %q: bad time %q (want e.g. 40us, 2ms)", entry, at)
		}
		crashes = append(crashes, fault.Crash{Rank: r, At: sim.Time(d)})
	}
	return crashes, nil
}

// parseStragglerSpec parses the -straggler flag: a comma-separated list
// of rank@compute[xsend] entries, e.g. "5@3" (compute 3x slower) or
// "5@3x2" (compute 3x, sends 2x slower). A factor is a number from 1 to
// fault.MaxMultiplier.
func parseStragglerSpec(spec string) ([]fault.Straggler, error) {
	var stragglers []fault.Straggler
	for _, entry := range strings.Split(spec, ",") {
		rank, factors, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("straggler %q: want rank@compute[xsend] (e.g. 5@3 or 5@3x2)", entry)
		}
		r, err := strconv.Atoi(rank)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("straggler %q: bad rank %q", entry, rank)
		}
		computeStr, sendStr, hasSend := strings.Cut(factors, "x")
		s := fault.Straggler{Rank: r}
		if s.Compute, ok = parseFactor(computeStr); !ok {
			return nil, fmt.Errorf("straggler %q: bad compute factor %q (want 1 to %g)", entry, computeStr, float64(fault.MaxMultiplier))
		}
		if hasSend {
			if s.Send, ok = parseFactor(sendStr); !ok {
				return nil, fmt.Errorf("straggler %q: bad send factor %q (want 1 to %g)", entry, sendStr, float64(fault.MaxMultiplier))
			}
		}
		stragglers = append(stragglers, s)
	}
	return stragglers, nil
}

// parseFactor parses one straggler multiplier and reports whether it
// is a number from 1 to fault.MaxMultiplier (NaN is not).
func parseFactor(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && f >= 1 && f <= fault.MaxMultiplier
}

// buildFaultPlan resolves the fault flags into at most one plan. A plan
// file fixes the complete fault schedule, so combining it with inline
// -crash/-straggler flags is a conflict, not a merge.
func buildFaultPlan(planPath, crashSpec, stragglerSpec string, seed uint64) (*fault.Plan, error) {
	if planPath != "" && (crashSpec != "" || stragglerSpec != "") {
		return nil, fmt.Errorf("-faults conflicts with -crash/-straggler: the plan file already fixes the fault schedule")
	}
	if planPath != "" {
		data, err := os.ReadFile(planPath)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			return nil, fmt.Errorf("-faults %s: %w", planPath, err)
		}
		return plan, nil
	}
	if crashSpec == "" && stragglerSpec == "" {
		return nil, nil
	}
	// Inline plans reuse the run seed: the same command line replays
	// the same adversity.
	plan := &fault.Plan{Seed: seed}
	var err error
	if crashSpec != "" {
		if plan.Crashes, err = parseCrashSpec(crashSpec); err != nil {
			return nil, err
		}
	}
	if stragglerSpec != "" {
		if plan.Stragglers, err = parseStragglerSpec(stragglerSpec); err != nil {
			return nil, err
		}
	}
	return plan, nil
}
