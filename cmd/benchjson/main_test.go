package main

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: distws/internal/sim
cpu: AMD EPYC 7B13
BenchmarkKernelHotPath-8   	 7776040	       150.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	distws/internal/sim	1.318s
pkg: distws/internal/comm
BenchmarkCommSend 	36706946	        72.57 ns/op	       0 B/op	       0 allocs/op
ok  	distws/internal/comm	2.964s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("environment banner lost: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	k := rep.Benchmarks[0]
	if k.Name != "KernelHotPath" || k.Pkg != "distws/internal/sim" ||
		k.Iterations != 7776040 || k.NsPerOp != 150.0 || k.BytesPerOp != 0 || k.AllocsPerOp != 0 {
		t.Fatalf("kernel entry wrong: %+v", k)
	}
	c := rep.Benchmarks[1]
	if c.Name != "CommSend" || c.Pkg != "distws/internal/comm" || c.NsPerOp != 72.57 {
		t.Fatalf("comm entry wrong: %+v", c)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX 	100	 5.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b := rep.Benchmarks[0]; b.BytesPerOp != -1 || b.AllocsPerOp != -1 {
		t.Fatalf("missing -benchmem columns must read -1, got %+v", b)
	}
}

func TestParseRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok \tx\t0.1s\n")); err == nil {
		t.Fatal("no error for input without benchmarks")
	}
	if _, err := parse(strings.NewReader("BenchmarkBroken abc 5.0 ns/op\n")); err == nil {
		t.Fatal("no error for malformed iteration count")
	}
}

func TestCheckRequired(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRequired(rep, "KernelHotPath, CommSend"); err != nil {
		t.Fatalf("present benchmarks reported missing: %v", err)
	}
	if err := checkRequired(rep, "LatencyLookup"); err == nil {
		t.Fatal("missing required benchmark not reported")
	}
}

// TestBandCheck covers the benchmark gate's comparator: exact,
// relative, absolute, and combined bands.
func TestBandCheck(t *testing.T) {
	cases := []struct {
		band      Band
		base, got float64
		ok        bool
	}{
		{Band{}, 5, 5, true},
		{Band{}, 5, 5.0001, false},
		{Band{Rel: 0.1}, 100, 109, true},
		{Band{Rel: 0.1}, 100, 111, false},
		{Band{Rel: 0.1}, -100, -109, true}, // relative scale uses |base|
		{Band{Abs: 3}, 10, 13, true},
		{Band{Abs: 3}, 10, 13.5, false},
		{Band{Rel: 0.05, Abs: 2}, 100, 106.9, true},
		{Band{Rel: 0.05, Abs: 2}, 100, 107.1, false},
		{Band{Abs: 1}, 0, 0.5, true}, // abs band still works at base 0
		{Band{Rel: 0.5}, 0, 0.5, false},
	}
	for i, c := range cases {
		if got := c.band.Check(c.base, c.got); got != c.ok {
			t.Errorf("case %d: Band%+v.Check(%v, %v) = %v, want %v", i, c.band, c.base, c.got, got, c.ok)
		}
	}
}

// TestGateReportsViolationsInOrder: the gate's report lists violations
// in check order with the offending values.
func TestGateReportsViolationsInOrder(t *testing.T) {
	var g Gate
	g.Check("a/ok", Band{Rel: 1}, 10, 11)
	g.Check("b/bad", Band{}, 10, 11)
	g.Check("c/bad", Band{Abs: 0.5}, 2, 3)
	if g.OK() {
		t.Fatal("gate passed with violations")
	}
	if g.Checked != 3 || len(g.Violations) != 2 {
		t.Fatalf("checked %d, violations %d", g.Checked, len(g.Violations))
	}
	var buf bytes.Buffer
	if err := g.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	bi, ci := strings.Index(out, "b/bad"), strings.Index(out, "c/bad")
	if bi < 0 || ci < 0 || bi > ci {
		t.Errorf("violations missing or out of order:\n%s", out)
	}
}
