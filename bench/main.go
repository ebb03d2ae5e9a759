// Command bench is the repository benchmark: a ladder of six whole-run
// workloads measured end to end, and a separate traced pass that splits
// each run's host time into a per-layer budget. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains the
// workloads and the metrics.
//
//	bash bench/run.sh -seed 1                 every workload, end to end
//	bash bench/run.sh -seed 1 -trace 1        every workload, per-layer pass
//	bash bench/run.sh -workload steal-8k      one workload
//	bash bench/run.sh -agree                  two full sets, compared with the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the process exits 0
// when it could measure, whatever the verdict.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// outDir receives the span files; run.sh also builds into it. The
// benchmark runs with this package's directory as working directory.
const outDir = "out"

// minReps is the fewest timed reps a measurement may rest on.
const minReps = 5

// setupProbes is how many fresh processes repeat the set-up; with the
// measuring process's own, setup_s is a median of three.
const setupProbes = 2

// tracedPlainReps is how many untraced reps of each configuration the
// traced pass times for its ratios (tracing overhead, sharded speed-up,
// recording overhead).
const tracedPlainReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(attempted, failed int, units [][2]string, values map[string]float64) (*result, error) {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, u := range units {
		v := values[u[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", u[0], v)
		}
		r.Metrics[u[0]] = metricValue{v, u[1]}
	}
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with its JSON result (default: all, each in its own process)")
		seed    = flag.Uint64("seed", 1, "the only source of randomness for every input")
		seconds = flag.Float64("seconds", 10, "how long the timed reps of one workload run")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
		agree   = flag.Bool("agree", false, "run the full end-to-end set twice and compare the two with the declared bounds")
		probe   = flag.Bool("setup-probe", false, "internal: set the workload up, print the set-up seconds, exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced != 0, *agree, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced, agree, probe bool) error {
	if name == "" {
		printHeader(os.Stdout)
		if agree {
			return runAgree(seed, seconds)
		}
		_, err := runAll(seed, seconds, traced)
		return err
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if probe {
		p, err := setUp(w, fullScale, seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(p.setupS)
		return nil
	}
	var res *result
	if traced {
		tp, err := tracePass(w, fullScale, seed, tracedPlainReps)
		if err != nil {
			return err
		}
		path, err := tp.tr.write(outDir)
		if err != nil {
			return err
		}
		tp.report(os.Stdout)
		fmt.Printf("  %d spans written to %s\n", len(tp.tr.spans), path)
		if res, err = newResult(tp.attempted, tp.failed, perLayerUnits, tp.m); err != nil {
			return err
		}
	} else {
		golden, err := goldenDigest(name, seed)
		if err != nil {
			return err
		}
		rep, err := measure(w, fullScale, seed, options{seconds: seconds, minReps: minReps, probes: setupProbes, golden: golden})
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		if rep.metrics == nil {
			return fmt.Errorf("no rep of %s succeeded: %w", name, rep.firstErr)
		}
		if res, err = newResult(rep.attempted, rep.failed, e2eUnits, rep.metrics); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// goldenDigest returns the digest pinned for the workload, which exists
// for seed 1 only; every other seed checks the identities alone.
func goldenDigest(name string, seed uint64) (string, error) {
	if seed != 1 {
		return "", nil
	}
	data, err := os.ReadFile("golden_seed1.json")
	if err != nil {
		return "", err
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		return "", fmt.Errorf("golden_seed1.json: %w", err)
	}
	if pinned[name] == "" {
		return "", fmt.Errorf("golden_seed1.json pins no digest for %s", name)
	}
	return pinned[name], nil
}

// tracedPass is one workload's traced run and replays.
type tracedPass struct {
	tr                *tracer
	m                 layerMetrics
	attempted, failed int
	firstErr          error
}

// fail counts a failed rep and keeps the first reason.
func (tp *tracedPass) fail(err error) {
	tp.failed++
	if tp.firstErr == nil {
		tp.firstErr = err
	}
}

// timing collects the untraced reps of one configuration.
type timing struct {
	core, wall []float64 // seconds inside core.Run, seconds of the whole rep
	last       *repOutcome
}

func (t *timing) add(out *repOutcome) {
	if out != nil {
		t.core, t.wall, t.last = append(t.core, out.coreS()), append(t.wall, out.wall()), out
	}
}

// tracePass runs the workload once with spans on and replays its
// layers. plainReps untraced reps of the workload (and of its twin and
// sharded variants, when it has them) feed the ratios.
func tracePass(w *workload, sc scale, seed uint64, plainReps int) (*tracedPass, error) {
	tp := &tracedPass{tr: newTracer(w.name), m: layerMetrics{}}
	p, err := setUp(w, sc, seed, tp.tr)
	if err != nil {
		return nil, err
	}
	// rep runs one verified rep; a failed one counts and yields nil.
	rep := func(tr *tracer, in *inputs) *repOutcome {
		tp.attempted++
		runtime.GC()
		out, err := runRep(tr, rootSpan, in, p.ref)
		if err != nil {
			tp.fail(err)
			return nil
		}
		return out
	}
	// Untraced reps of the workload and of its variants, interleaved so
	// that a change in host speed hits both sides of each ratio alike.
	var plain, twin, sharded timing
	for i := 0; i < plainReps; i++ {
		plain.add(rep(nil, p.in))
		if p.in.analyze {
			twin.add(rep(nil, p.in.variant(p.in.twin)))
		}
		if p.in.sharded != nil {
			sharded.add(rep(nil, p.in.variant(p.in.sharded)))
		}
	}
	out := rep(tp.tr, p.in)
	if out == nil {
		return nil, fmt.Errorf("traced run: %w", tp.firstErr)
	}
	if out.digest != p.wantDigest {
		tp.fail(fmt.Errorf("traced run digest %.12s differs from the reference run's %.12s", out.digest, p.wantDigest))
	}
	for i := range out.results {
		if err := replayLayers(tp.tr, rootSpan, p.in.cfgs[i], out.results[i], tp.m); err != nil {
			return nil, err
		}
	}
	m := tp.m
	if p.in.analyze {
		m["obs.analyze_s"], m["obs.export_s"] = out.analyzeS, out.exportS
		m["obs.export_mb"] = float64(out.exportBytes) / 1e6
		m["obs.overhead_ratio"] = ratio(median(plain.wall), median(twin.wall))
	}
	if last := sharded.last; last != nil {
		// A sharded digest that differs from the sequential one is
		// reported, not failed: seeds that hit the symmetric
		// same-nanosecond collision caveat (core.Config.Shards) may
		// legitimately differ.
		l := last.results[0].Par
		m["par.windows"] = float64(l.Totals().Windows)
		m["par.serialized_ratio"] = l.SerializedShare()
		m["par.staged_msgs"] = float64(l.Totals().Staged)
		m["par.speedup_vs_seq"] = ratio(median(plain.core), median(sharded.core))
		if last.digest == p.wantDigest {
			m["par.digest_equal"] = 1
		}
	}
	m.finish(out.coreS(), median(plain.core))
	return tp, nil
}

func (tp *tracedPass) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d reps attempted, %d failed\n", tp.tr.workload, tp.attempted, tp.failed)
	if tp.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", tp.firstErr)
	}
	tp.m.printBudget(w, tp.tr.workload)
}

// printHeader names the host, so two sets of numbers can be told apart.
func printHeader(w io.Writer) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	fmt.Fprintf(w, "distws bench: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// runChild runs one workload in its own process, so that peak_rss_mb is
// the workload's own, passes its report through and returns its result.
func runChild(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	body, last := cutLastLine(outb)
	os.Stdout.Write(body)
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	return &res, nil
}

func cutLastLine(b []byte) (body, last []byte) {
	b = bytes.TrimRight(b, "\n")
	i := bytes.LastIndexByte(b, '\n')
	return b[:i+1], b[i+1:]
}

// runAll runs every workload once and fails if any rep of any workload
// failed.
func runAll(seed uint64, seconds float64, traced bool) (map[string]*result, error) {
	results := map[string]*result{}
	var bad []string
	for _, w := range workloads {
		res, err := runChild(w.name, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		results[w.name] = res
		if !res.Correct {
			bad = append(bad, w.name)
		}
	}
	if len(bad) > 0 {
		return results, fmt.Errorf("failed reps in %s", strings.Join(bad, ", "))
	}
	fmt.Printf("all %d workloads: error_rate 0\n", len(workloads))
	return results, nil
}

// declared is the part of BENCHMARK.json the self-check needs.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared() (*declared, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// runAgree measures the full set twice and holds the second set to the
// first by each metric's own bound. It prints every observed difference
// so bounds can be tightened.
func runAgree(seed uint64, seconds float64) error {
	d, err := readDeclared()
	if err != nil {
		return err
	}
	var sets [2]map[string]*result
	for i := range sets {
		fmt.Printf("== set %d\n", i+1)
		if sets[i], err = runAll(seed, seconds, false); err != nil {
			return err
		}
	}
	fmt.Printf("== agreement of the two sets (worsening of set 2 over set 1; bound)\n")
	var over []string
	for _, w := range workloads {
		for _, m := range d.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OVER"
				over = append(over, w.name+"/"+m.Name)
			}
			fmt.Printf("  %-12s %-18s %14.6g %14.6g %+8.3f%% (%.0f%%) %s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("the two sets disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
