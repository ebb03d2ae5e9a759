package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: flag values the job cannot answer for end the command
// with status 2 and one line on stderr instead of a panic. -thief 16 on
// 16 ranks used to index past the job, -ranks 1 to take the median of
// no distances.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ranks", "16", "-thief", "16"}, "-thief 16: outside [0, 16)"},
		{[]string{"-ranks", "16", "-thief", "-1"}, "-thief -1: outside [0, 16)"},
		{[]string{"-ranks", "1"}, "-ranks 1: need at least 2 ranks"},
		{[]string{"-ranks", "0"}, "-ranks 0: need at least 2 ranks"},
		{[]string{"-placement", "4X"}, `unknown placement "4X" (1/N, 8RR, 8G)`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if msg := stderr.String(); msg != c.want+"\n" {
			t.Errorf("%v: stderr %q, want %q", c.args, msg, c.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report: %q", c.args, stdout.String())
		}
	}
}

// TestReport drives the success path at the smallest valid job.
func TestReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ranks", "2", "-thief", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"job: 2 ranks, 1/N placement", "from rank 1", "distance histogram:", "victim-selection mass"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}
