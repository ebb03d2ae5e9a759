package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadTreeParametersExitOne: parameters Validate rejects end the
// command with status 1 and one line on stderr. -b Inf and -q NaN used
// to pass validation and print a silent one-node tree.
func TestBadTreeParametersExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-b", "Inf"},
		{"-b", "NaN"},
		{"-b", "1e30"},
		{"-q", "NaN"},
		{"-type", "geometric", "-b", "+Inf"},
		{"-type", "hybrid", "-cutoff", "3", "-b", "NaN"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout %q)", args, code, stdout.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "uts: ") {
			t.Errorf("%v: stderr is not a one-line uts error: %q", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result for an invalid tree: %q", args, stdout.String())
		}
	}
}

// TestEnumeratesPreset drives the success path end to end.
func TestEnumeratesPreset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tree", "T3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "nodes=2611 leaves=2305 depth=5") {
		t.Errorf("unexpected T3 enumeration: %q", stdout.String())
	}
}
