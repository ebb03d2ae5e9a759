package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestCLI runs the command in-process on command lines that stop before
// any experiment runs, or after quick-scale Table I: the exit status
// and the first line of stderr.
func TestCLI(t *testing.T) {
	type cliCase struct {
		args   string
		code   int
		stderr string
	}
	cases := []cliCase{
		{"-list", 0, ""},
		// The flag package stops at the first non-flag: -scale bogus
		// used to be dropped, and table1 ran at the default scale.
		{"-run table1 stray -scale bogus", 2, `unexpected argument "stray"`},
		{"-run table1 -scale bogus", 2, `harness: unknown scale "bogus"`},
		{"-run nope -scale quick", 2, `unknown experiment "nope"; -list shows the registry`},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		// A full disk under any of the three output files fails the
		// command; -o used to lose the error and exit 0.
		for _, flag := range []string{"-o", "-json", "-csv"} {
			cases = append(cases, cliCase{"-run table1 -scale quick " + flag + " /dev/full", 1, "write /dev/full: "})
		}
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		line, _, _ := strings.Cut(stderr.String(), "\n")
		if code != c.code || !strings.HasPrefix(line, c.stderr) || c.stderr == "" && line != "" {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr %q", c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}
