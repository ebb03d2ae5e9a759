// Command benchjson converts `go test -bench` text output into a
// stable JSON document, so benchmark results can be archived as CI
// artifacts and diffed across commits without scraping the text format.
//
//	go test -bench . -benchmem ./... | go run ./cmd/benchjson -out BENCH_sim.json
//
// Every benchmark result line becomes one entry (repeated -count runs
// stay separate entries, letting consumers compute their own spread).
// The tool fails when the stream contains no benchmark results or a
// line it cannot parse, and with -require it also fails when a named
// benchmark is missing — that is what lets CI treat a silently skipped
// benchmark as an error instead of an empty artifact.
//
// -baseline compares the fresh results against a committed report
// (BENCH_sim.json at the repo root) with tolerance bands (band.go):
// alloc counts are near-exact, bytes get a small band, and ns/op is
// not gated (shared-runner wall time is noise). A new or vanished
// benchmark is a rebaseline condition, not a silent pass.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	// Name is the benchmark name with the "Benchmark" prefix and the
	// -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the import path the result was reported under.
	Pkg        string  `json:"pkg"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the run lacked -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Report is the document benchjson emits.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	require := flag.String("require", "", "comma-separated benchmark names that must be present")
	baseline := flag.String("baseline", "", "committed benchjson report to gate allocation counts against")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := checkRequired(rep, *require); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := compareBaseline(rep, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

// Bands for the benchmark gate. Allocation counts in a deterministic
// simulator are reproducible, so they get a near-exact band; bytes/op
// can wobble with map growth, so they get slack.
var (
	allocsBand = Band{Rel: 0.01, Abs: 2}
	bytesBand  = Band{Rel: 0.10, Abs: 256}
)

// compareBaseline gates rep against the committed report at path with
// the tolerance bands above. Benchmarks appearing in only
// one of the two reports force a rebaseline (`make bench-json` + commit).
func compareBaseline(rep *Report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	key := func(b Benchmark) string { return b.Pkg + "." + b.Name }
	baseIdx := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseIdx[key(b)] = b
	}

	g := &Gate{}
	seen := map[string]bool{}
	var missing []string
	for _, b := range rep.Benchmarks {
		k := key(b)
		bb, ok := baseIdx[k]
		if !ok {
			if !seen[k] {
				missing = append(missing, k)
				seen[k] = true
			}
			continue
		}
		seen[k] = true
		if b.AllocsPerOp >= 0 && bb.AllocsPerOp >= 0 {
			g.Check(k+"/allocs_per_op", allocsBand, float64(bb.AllocsPerOp), float64(b.AllocsPerOp))
		}
		if b.BytesPerOp >= 0 && bb.BytesPerOp >= 0 {
			g.Check(k+"/bytes_per_op", bytesBand, float64(bb.BytesPerOp), float64(b.BytesPerOp))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmark(s) missing from baseline %s: %s (rerun `make bench-json` and commit the report)",
			path, strings.Join(missing, ", "))
	}
	var stale []string
	for k := range baseIdx {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		return fmt.Errorf("baseline %s has benchmark(s) this run no longer produces: %s (rerun `make bench-json` and commit the report)",
			path, strings.Join(stale, ", "))
	}
	if err := g.Report(os.Stdout); err != nil {
		return err
	}
	if !g.OK() {
		return fmt.Errorf("benchmark baseline gate failed against %s", path)
	}
	return nil
}

// parse consumes `go test -bench` output. Package banners (pkg:, goos:,
// cpu:) set context; Benchmark lines become entries; everything else
// (PASS, ok, test logs) is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		// Invalid UTF-8 would not survive the JSON report.
		line := strings.ToValidUTF8(strings.TrimSpace(sc.Text()), "\uFFFD")
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseResult(line, pkg)
			if err != nil {
				return nil, err
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	return rep, nil
}

// parseResult parses one result line:
//
//	BenchmarkKernelHotPath-8   7776040   150.0 ns/op   0 B/op   0 allocs/op
//
// It refuses what no benchmark run prints: a negative iteration count
// or per-op value — -1 is this report's mark for a column the run did
// not measure — and a non-finite ns/op, which JSON cannot hold.
func parseResult(line, pkg string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// Counts parse unsigned, so a sign is a syntax error.
	iters, err := strconv.ParseUint(f[1], 10, 63)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	b := Benchmark{Name: name, Pkg: pkg, Iterations: int64(iters), BytesPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(f); i += 2 {
		v, unit := f[i], f[i+1]
		var n uint64
		switch unit {
		case "ns/op":
			b.NsPerOp, err = strconv.ParseFloat(v, 64)
			if err == nil && !(b.NsPerOp >= 0 && b.NsPerOp <= math.MaxFloat64) {
				err = errors.New("negative or not finite")
			}
		case "B/op":
			n, err = strconv.ParseUint(v, 10, 63)
			b.BytesPerOp = int64(n)
		case "allocs/op":
			n, err = strconv.ParseUint(v, 10, 63)
			b.AllocsPerOp = int64(n)
		default:
			// Custom ReportMetric units pass through unrecorded.
		}
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad %s in %q: %v", unit, line, err)
		}
	}
	return b, nil
}

// checkRequired verifies every name in the comma-separated list appears
// among the parsed results.
func checkRequired(rep *Report, require string) error {
	if require == "" {
		return nil
	}
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, b := range rep.Benchmarks {
			if b.Name == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("required benchmark %q missing from input", want)
		}
	}
	return nil
}
