package main

import (
	"crypto/sha1"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"distws/internal/core"
	"distws/internal/obs/causal"
	"distws/internal/obs/ledger"
	"distws/internal/stats"
	"distws/internal/uts"
)

// The host this benchmark runs on is shared, and its speed moves between
// regimes that last from seconds to minutes: the same run was measured
// 1.5× slower in one minute than in the next, in wall and in CPU time
// alike, which a median over one 10-second window cannot remove. Every
// end-to-end time is therefore scaled by how fast the host was around
// it, as measured by a fixed kernel the benchmark owns.

// calibRefS is the calibration kernel's duration on the reference host
// in its fast regime; a host that runs the kernel in calibRefS reports
// its times unscaled.
const calibRefS = 0.0205

var calibHeap = func() []uint64 {
	h := make([]uint64, 8192)
	for i := range h {
		h[i] = uint64(i) * 7
	}
	return h
}()

// calibrate times a fixed amount of work that shares no code with the
// simulator: about two thirds binary-heap churn at the depth of an
// 8192-rank event queue, one third SHA-1 — the mix whose slow-down
// tracked the workloads' most closely when the host changed regime.
func calibrate() float64 {
	t := time.Now()
	h, x := calibHeap, uint64(88172645463325252)
	for n := 0; n < 130000; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h[0] += x & 0xffff
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && h[l] < h[m] {
				m = l
			}
			if r < len(h) && h[r] < h[m] {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	var b [24]byte
	for n := 0; n < 45000; n++ {
		sum := sha1.Sum(b[:])
		copy(b[:], sum[:])
	}
	calibHeap[1] += uint64(b[0]) // keep the hashing alive
	return time.Since(t).Seconds()
}

// hostFactor converts seconds measured between two calibrations into
// reference-host seconds.
func hostFactor(before, after float64) float64 { return 2 * calibRefS / (before + after) }

// processStart approximates the instant the workload process began; the
// set-up time is counted from it, so it means something only for the
// first set-up of a process.
var processStart = time.Now()

// repOutcome is what one rep (every config of the workload, once)
// produced.
type repOutcome struct {
	results []*core.Result
	digest  string
	// walls holds the host seconds of each core.Run call (plus the
	// analysis pipeline for an analyzing workload).
	walls []float64
	nodes uint64
	// virtMakespan sums the simulated makespans of the rep's runs.
	virtMakespan float64 // ms
	// analyzeS and exportS split the analysis pipeline's host time;
	// exportBytes is what the JSONL exporter wrote.
	analyzeS, exportS float64
	exportBytes       int64
}

// countingDiscard measures what an exporter writes without keeping it.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// wall is the rep's total host seconds; coreS the part spent inside
// core.Run.
func (o *repOutcome) wall() (s float64) {
	for _, w := range o.walls {
		s += w
	}
	return s
}

func (o *repOutcome) coreS() float64 { return o.wall() - o.analyzeS - o.exportS }

// runRep executes one rep and verifies every result. ref is the
// reference traversal; a nil error means every identity held. Spans go
// to tr (nil when tracing is off) under parent.
func runRep(tr *tracer, parent int, in *inputs, ref uts.CountResult) (*repOutcome, error) {
	out := &repOutcome{}
	for i := range in.cfgs {
		cfg := withRegistry(in.cfgs[i])
		s := tr.begin("core.Run", parent)
		t0 := time.Now()
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		tr.end(s, res.Nodes)
		if in.analyze {
			s := tr.begin("obs.analyze", parent)
			t1 := time.Now()
			g := causal.Build(res.Trace)
			_ = causal.CriticalPath(g)
			_ = causal.AttributeIdle(res.Trace)
			m := ledger.FromRun(in.treeName, ledger.SpecFromConfig(in.treeName, "bench", cfg), res)
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("run manifest: %w", err)
			}
			tr.end(s, uint64(res.Trace.TotalEvents()))
			s = tr.begin("obs.export", parent)
			t2 := time.Now()
			var sink countingDiscard
			if err := res.Trace.WriteJSONL(&sink); err != nil {
				return nil, fmt.Errorf("trace export: %w", err)
			}
			tr.end(s, uint64(sink.n))
			out.analyzeS += t2.Sub(t1).Seconds()
			out.exportS += time.Since(t2).Seconds()
			out.exportBytes += sink.n
		}
		out.walls = append(out.walls, time.Since(t0).Seconds())
		if err := in.check(&cfg, res, ref); err != nil {
			return nil, err
		}
		out.results = append(out.results, res)
		out.nodes += res.Nodes
		out.virtMakespan += float64(res.Makespan) / 1e6
	}
	out.digest = digestOf(out.results)
	return out, nil
}

// prepared is a workload after set-up: inputs generated, reference
// computed, code paths warm.
type prepared struct {
	in  *inputs
	ref uts.CountResult
	// wantDigest is the digest every rep must reproduce: the twin's when
	// the workload has one, otherwise the cold run's.
	wantDigest string
	// setupS is the set-up time in reference-host seconds.
	setupS float64
}

// setUp does everything that precedes the first timed rep: input
// generation, the reference traversal, and one cold run — of the twin
// configuration when the workload has one, since that run also yields
// the reference digest. tr may be nil.
func setUp(w *workload, sc scale, seed uint64, tr *tracer) (*prepared, error) {
	calBefore := calibrate()
	sp := tr.begin("setup", rootSpan)
	defer func() { tr.end(sp, 1) }()
	p := &prepared{in: w.build(sc, seed)}
	if p.in.kind == kindClosed {
		s := tr.begin("uts.reference", sp)
		ref, err := uts.CountSequential(p.in.cfgs[0].Tree)
		tr.end(s, ref.Nodes)
		if err != nil {
			return nil, fmt.Errorf("reference traversal: %w", err)
		}
		p.ref = ref
	}
	cold := p.in
	if p.in.twin != nil {
		cold = p.in.variant(p.in.twin)
	}
	out, err := runRep(tr, sp, cold, p.ref)
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	p.wantDigest = out.digest
	raw := time.Since(processStart).Seconds() - calBefore
	p.setupS = raw * hostFactor(calBefore, calibrate())
	return p, nil
}

// options bound one measurement.
type options struct {
	seconds float64
	minReps int
	// probes is how many extra processes repeat the set-up so setup_s is
	// a median; 0 keeps the measuring process's own set-up time.
	probes int
	// golden, when non-empty, is the digest pinned for this workload.
	golden string
}

// e2eReport is one workload's end-to-end measurement.
type e2eReport struct {
	workload          string
	attempted, failed int
	firstErr          error
	digest            string
	// virtMakespanMS is the simulated makespan of one rep (summed over
	// the cells of a sweep): deterministic, so printed beside the digest
	// rather than measured.
	virtMakespanMS float64
	// runS holds the per-call samples in reference-host seconds, rawS
	// the same samples as the wall clock read them; both sorted.
	runS, rawS []float64
	setupS     []float64
	metrics    map[string]float64
}

var e2eUnits = [][2]string{
	{"run_s", "s"},
	{"nodes_per_s", "1/s"},
	{"allocs_per_run", "count"},
	{"alloc_mb_per_run", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// measure sets the workload up and runs its timed reps, tracing off.
func measure(w *workload, sc scale, seed uint64, opt options) (*e2eReport, error) {
	p, err := setUp(w, sc, seed, nil)
	if err != nil {
		return nil, err
	}
	return timeReps(w.name, p, seed, opt)
}

// timeReps runs the timed reps of a prepared workload.
func timeReps(name string, p *prepared, seed uint64, opt options) (*e2eReport, error) {
	rep := &e2eReport{workload: name, setupS: []float64{p.setupS}}
	for i := 0; i < opt.probes; i++ {
		s, err := probeSetup(name, seed)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}
	sort.Float64s(rep.setupS)

	var allocs, allocMB, rate []float64
	var virt float64
	var ms0, ms1 runtime.MemStats
	start, cal := time.Now(), calibrate()
	for rep.attempted < opt.minReps || time.Since(start).Seconds() < opt.seconds {
		rep.attempted++
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		out, err := runRep(nil, -1, p.in, p.ref)
		runtime.ReadMemStats(&ms1)
		next := calibrate()
		factor := hostFactor(cal, next)
		cal = next
		if err == nil {
			err = rep.checkDigest(p, out, opt.golden)
		}
		if err != nil {
			rep.failed++
			if rep.firstErr == nil {
				rep.firstErr = err
			}
			continue
		}
		calls := float64(len(out.walls))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/calls)
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/calls/1e6)
		for _, w := range out.walls {
			rep.rawS = append(rep.rawS, w)
			rep.runS = append(rep.runS, w*factor)
		}
		rate = append(rate, float64(out.nodes)/(out.wall()*factor))
		virt = out.virtMakespan
	}
	if len(rep.runS) == 0 {
		return rep, nil
	}
	sort.Float64s(rep.runS)
	sort.Float64s(rep.rawS)
	rep.metrics = map[string]float64{
		"run_s":            median(rep.runS),
		"nodes_per_s":      median(rate),
		"allocs_per_run":   median(allocs),
		"alloc_mb_per_run": median(allocMB),
		"peak_rss_mb":      peakRSSMB(),
		"setup_s":          median(rep.setupS),
	}
	rep.virtMakespanMS = virt
	return rep, nil
}

// checkDigest holds a rep to the workload's reference digest and, when
// one is pinned, to the golden digest.
func (rep *e2eReport) checkDigest(p *prepared, out *repOutcome, golden string) error {
	if rep.digest == "" {
		rep.digest = out.digest
	} else if out.digest != rep.digest {
		return fmt.Errorf("result digest %.12s differs from the previous rep's %.12s", out.digest, rep.digest)
	}
	if out.digest != p.wantDigest {
		return fmt.Errorf("result digest %.12s differs from the reference run's %.12s", out.digest, p.wantDigest)
	}
	if golden != "" && out.digest != golden {
		return fmt.Errorf("result digest %.12s differs from the pinned %.12s", out.digest, golden)
	}
	return nil
}

// probeSetup repeats the workload's set-up in a fresh process — where
// one-time initialisation is paid again — and returns its duration.
func probeSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(outb)), 64)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// median of v, or NaN when no rep produced a sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return stats.Quantile(v, 0.5)
}

// tailQuantile is the highest of p90/p95/p99 with at least ten samples
// beyond it, or 0 when the sample is too small for any.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}

// print writes the human-readable block for one workload.
func (rep *e2eReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d reps attempted, %d failed, error_rate %.3f\n",
		rep.workload, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	if rep.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", rep.firstErr)
	}
	if rep.metrics == nil {
		return
	}
	fmt.Fprintf(w, "  run_s samples=%d min=%.4f median=%.4f max=%.4f", len(rep.runS), rep.runS[0], median(rep.runS), rep.runS[len(rep.runS)-1])
	if q := tailQuantile(len(rep.runS)); q > 0 {
		fmt.Fprintf(w, " p%.0f=%.4f", q*100, stats.Quantile(rep.runS, q))
	}
	fmt.Fprintf(w, "\n  wall clock, unscaled: min=%.4f median=%.4f max=%.4f\n", rep.rawS[0], median(rep.rawS), rep.rawS[len(rep.rawS)-1])
	fmt.Fprintf(w, "  setup_s samples=%d min=%.3f max=%.3f\n", len(rep.setupS), rep.setupS[0], rep.setupS[len(rep.setupS)-1])
	for _, m := range e2eUnits {
		fmt.Fprintf(w, "  %-18s %14.6g %s\n", m[0], rep.metrics[m[0]], m[1])
	}
	fmt.Fprintf(w, "  virt_makespan_ms   %14.6g ms (simulated)\n", rep.virtMakespanMS)
	fmt.Fprintf(w, "  result_digest      %s\n", rep.digest)
}
