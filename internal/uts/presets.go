package uts

import "sort"

// PresetInfo describes a named tree preset.
type PresetInfo struct {
	Name   string
	Params Params
	// PaperSize is the node count the paper's Table I reports for this
	// tree, when it is one of the paper's trees; 0 otherwise. Our SHA-1
	// stream is BRG-style but not bit-compatible with the reference C
	// implementation, so realized sizes differ; EXPERIMENTS.md records
	// the measured sizes.
	PaperSize uint64
	// Comment explains the preset's role in the reproduction.
	Comment string
}

// presets is the registry of named trees.
//
// The paper's trees (Table I) are enormous: T3XXL has 2.8e9 nodes and
// T3WL 1.6e11. Searching them sequentially takes hours to days even
// natively; inside a simulator they are out of reach. The scaled
// variants keep the exact generative structure (binomial, root fan-out
// b=2000, m=2) and shrink the expected size 1 + b/(1-mq) by moving q
// away from the critical point 1/2. The heavy-tailed subtree-size
// distribution that stresses the load balancer is preserved.
var presets = map[string]PresetInfo{
	"T1": {
		Name: "T1",
		Params: Params{
			Type: Geometric, RootSeed: 19, B0: 4, GenMax: 10, Shape: ShapeLinear,
		},
		Comment: "standard UTS geometric tree (small); used for generator tests",
	},
	"T3": {
		Name: "T3",
		Params: Params{
			Type: Binomial, RootSeed: 42, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.124875,
		},
		Comment: "binomial tree with ~2285 expected nodes; unit-test scale",
	},
	"T3XXL": {
		Name: "T3XXL",
		Params: Params{
			Type: Binomial, RootSeed: 316, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.499995,
		},
		PaperSize: 2793220501,
		Comment:   "paper Table I; used by Figure 2 on the K Computer. Too large to run here; see T3S/T3M.",
	},
	"T3WL": {
		Name: "T3WL",
		Params: Params{
			Type: Binomial, RootSeed: 559, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.4999995,
		},
		PaperSize: 157063495159,
		Comment:   "paper Table I; used by Figures 3-15. Too large to run here; see T3L.",
	},
	"T3S": {
		Name: "T3S",
		Params: Params{
			Type: Binomial, RootSeed: 316, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.49,
		},
		Comment: "scaled T3XXL stand-in, expected ~1e5 nodes; experiments at 8-128 ranks",
	},
	"T3M": {
		Name: "T3M",
		Params: Params{
			Type: Binomial, RootSeed: 316, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.499,
		},
		Comment: "scaled tree, expected ~1e6 nodes; mid-scale experiments",
	},
	"T3L": {
		Name: "T3L",
		Params: Params{
			Type: Binomial, RootSeed: 559, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.4998,
		},
		Comment: "scaled T3WL stand-in, expected ~5e6 nodes; experiments at 1024-8192 ranks",
	},
	"T3XL": {
		Name: "T3XL",
		Params: Params{
			Type: Binomial, RootSeed: 1, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.49995,
		},
		Comment: "scaled tree, realized ~2.1e7 nodes; full-fidelity 8192-rank runs (slow)",
	},
	// The H-* hybrid presets drive the scaled experiments. A pure
	// binomial tree small enough to simulate cannot keep thousands of
	// ranks fed: its peak frontier grows like sqrt(size), and with the
	// UTS chunk of 20 nodes a near-critical stack is almost never
	// stealable. The hybrid presets keep the binomial imbalance the
	// paper's trees stress (m=2, q near 1/2) and use a bushy geometric
	// top to fan the frontier out without a serial root bottleneck.
	// They pair with a proportionally scaled-down chunk size of 4
	// (EXPERIMENTS.md records the calibration).
	"H-TINY": {
		Name: "H-TINY",
		Params: Params{
			Type: Hybrid, RootSeed: 1, B0: 4, Shape: ShapeFixed,
			GenMax: 4, CutoffDepth: 4,
			NonLeafBF: 2, NonLeafProb: 0.49,
		},
		Comment: "hybrid, ~20k nodes; unit tests",
	},
	"H-EVEN": {
		Name: "H-EVEN",
		Params: Params{
			Type: Hybrid, RootSeed: 99, B0: 8, Shape: ShapeFixed,
			GenMax: 6, CutoffDepth: 6,
			NonLeafBF: 2, NonLeafProb: 0.475,
		},
		Comment: "hybrid, ~5M nodes with many shallow subtrees; small-scale figures where work per rank must dwarf the drain tail (Figures 2/4)",
	},
	"H-SMALL": {
		Name: "H-SMALL",
		Params: Params{
			Type: Hybrid, RootSeed: 316, B0: 5, Shape: ShapeFixed,
			GenMax: 5, CutoffDepth: 5,
			NonLeafBF: 2, NonLeafProb: 0.49875,
		},
		Comment: "hybrid, ~1.2M nodes; Figure 2 scale (8-128 ranks)",
	},
	"H-SWEEP": {
		Name: "H-SWEEP",
		Params: Params{
			Type: Hybrid, RootSeed: 559, B0: 5, Shape: ShapeFixed,
			GenMax: 5, CutoffDepth: 5,
			NonLeafBF: 2, NonLeafProb: 0.4995,
		},
		Comment: "hybrid, ~5.9M nodes; scaled stand-in for T3WL in the 128-1024 rank sweeps",
	},
	"H-FULL": {
		Name: "H-FULL",
		Params: Params{
			Type: Hybrid, RootSeed: 559, B0: 6, Shape: ShapeFixed,
			GenMax: 6, CutoffDepth: 6,
			NonLeafBF: 2, NonLeafProb: 0.49875,
		},
		Comment: "hybrid, ~39M nodes; full-fidelity sweeps up to 2048+ ranks (slow)",
	},
	"T3L-FAST": {
		Name: "T3L-FAST",
		Params: Params{
			Type: Binomial, RootSeed: 559, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.4998,
			Hash: HashFast,
		},
		Comment: "T3L with the fast hash; for smoke tests only",
	},
}

// Preset returns a named tree preset.
func Preset(name string) (PresetInfo, bool) {
	p, ok := presets[name]
	return p, ok
}

// MustPreset returns a named preset or panics; for use with names known
// at compile time.
func MustPreset(name string) PresetInfo {
	p, ok := presets[name]
	if !ok {
		panic("uts: unknown preset " + name)
	}
	return p
}

// PresetNames returns all registered preset names, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
