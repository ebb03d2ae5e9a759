package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// listing is the whole of `experiments -list`: every registered ID
// with the title the registry gives it.
const listing = `ablation-aborts      A8: aborting steals
ablation-backoff     A6: retry backoff
ablation-chunk       A1: chunk size sweep
ablation-jitter      A9: latency jitter robustness
ablation-poll        A2: poll interval (progress-engine granularity)
ablation-protocol    A7: one-sided vs two-sided steals
ablation-selectors   A3: all victim selectors
ablation-skew        A5: skew exponent
ablation-term        A4: termination detectors
blame                Idle-time blame attribution and critical path per policy
chaos                C1: policy degradation under an identical fault plan
ext-dag              E1: work stealing with data dependencies (paper §VII)
fig02                Efficiency of the reference implementation, 8-128 ranks
fig03                Speedup of the reference implementation at scale
fig04                Starting/ending latencies, reference, small scale
fig05                Starting/ending latencies, reference, large scale
fig06                Speedup with uniform random victim selection
fig07                Failed steals, reference vs random
fig08                Skewed victim-selection probability distribution
fig09                Speedup with distance-skewed (Tofu) selection
fig10                Average work-discovery session duration
fig11                Speedup when stealing half the chunks
fig12                Starting latencies, reference vs Tofu Half
fig13                Ending latencies, reference vs Tofu Half
fig14                Average search time per rank
fig15                Failed steals, reference vs Tofu Half
fig16                Victim-selection improvement vs work granularity
serving              S1: open-system serving saturation (goodput vs arrival rate)
table1               UTS input tree parameters
`

// TestCLI runs the command in-process on command lines that stop before
// any experiment runs, or after quick-scale Table I: the exit status,
// the first line of stderr and, where a case names it, all of stdout.
func TestCLI(t *testing.T) {
	type cliCase struct {
		args   string
		code   int
		stderr string
		stdout string
	}
	cases := []cliCase{
		{"-list", 0, "", listing},
		// The flag package stops at the first non-flag: -scale bogus
		// used to be dropped, and table1 ran at the default scale.
		{"-run table1 stray -scale bogus", 2, `unexpected argument "stray"`, ""},
		{"-run table1 -scale bogus", 2, `harness: unknown scale "bogus"`, ""},
		{"-run nope -scale quick", 2, `unknown experiment "nope"; -list shows the registry`, ""},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		// A full disk under the -o file fails the command; -o used to
		// lose the error and exit 0.
		cases = append(cases, cliCase{"-run table1 -scale quick -o /dev/full", 1, "write /dev/full: ", ""})
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		line, _, _ := strings.Cut(stderr.String(), "\n")
		if code != c.code || !strings.HasPrefix(line, c.stderr) || c.stderr == "" && line != "" {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr %q", c.args, code, stderr.String(), c.code, c.stderr)
		}
		if c.stdout != "" && stdout.String() != c.stdout {
			t.Errorf("%s: stdout\n%s\nwant\n%s", c.args, stdout.String(), c.stdout)
		}
	}
}
