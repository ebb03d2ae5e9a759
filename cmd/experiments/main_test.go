package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCLI runs the command in-process on command lines that stop before
// any experiment runs: the exit status and the first line of stderr.
func TestCLI(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"-list", 0, ""},
		// The flag package stops at the first non-flag: -scale bogus
		// used to be dropped, and table1 ran at the default scale.
		{"-run table1 stray -scale bogus", 2, `unexpected argument "stray"`},
		{"-run table1 -scale bogus", 2, `harness: unknown scale "bogus"`},
		{"-run nope -scale quick", 2, `unknown experiment "nope"; -list shows the registry`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		line, _, _ := strings.Cut(stderr.String(), "\n")
		if code != c.code || !strings.HasPrefix(line, c.stderr) || c.stderr == "" && line != "" {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr %q", c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}
