package main

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestParseRejectsImpossibleValues: no benchmark run prints a negative
// count or a non-finite time, and -1 must stay the mark of a column the
// run did not measure, so such a line fails the parse, naming itself.
func TestParseRejectsImpossibleValues(t *testing.T) {
	for _, line := range []string{
		"BenchmarkA-8 -5 12 ns/op 0 B/op 0 allocs/op",
		"BenchmarkA-8 5 -12 ns/op 0 B/op 0 allocs/op",
		"BenchmarkA-8 5 12 ns/op -7 B/op 0 allocs/op",
		"BenchmarkA-8 5 12 ns/op 0 B/op -1 allocs/op",
		"BenchmarkA-8 5 NaN ns/op",
		"BenchmarkA-8 5 +Inf ns/op",
		"BenchmarkA-8 5 1e999 ns/op",
	} {
		_, err := parse(strings.NewReader(line + "\n"))
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("parse(%q) error %v, want one naming the line", line, err)
		}
	}
}

// FuzzParse: parse never panics, and every report it accepts survives
// the JSON document the tool writes — it marshals, and unmarshals to an
// equal report.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("BenchmarkX 	100	 5.0 ns/op\n")
	f.Add("BenchmarkA-8 -5 12 ns/op -7 B/op -1 allocs/op\n")
	f.Add("BenchmarkA-8 5 NaN ns/op\n")
	f.Add("pkg: \xff\nBenchmark\xfe-1 1 0x1p-3 ns/op 3 B/op 4 allocs/op 9 MB/s\n")
	f.Fuzz(func(t *testing.T, in string) {
		rep, err := parse(strings.NewReader(in))
		if err != nil {
			return
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("accepted report does not marshal: %v\n%+v", err, rep)
		}
		var back Report
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("report does not unmarshal: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(*rep, back) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", *rep, back)
		}
	})
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
