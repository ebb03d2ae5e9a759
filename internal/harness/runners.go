package harness

import (
	"fmt"
	"runtime"
	"sync"

	"distws/internal/core"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// Variant names a (selector, steal policy) combination the way the
// paper does.
type Variant struct {
	Name     string
	Selector victim.Factory
	Steal    core.StealPolicy
}

// The paper's variants.
var (
	Reference     = Variant{"Reference", victim.NewRoundRobin, core.StealOne}
	ReferenceHalf = Variant{"Reference Half", victim.NewRoundRobin, core.StealHalf}
	Rand          = Variant{"Rand", victim.NewUniformRandom, core.StealOne}
	RandHalf      = Variant{"Rand Half", victim.NewUniformRandom, core.StealHalf}
	Tofu          = Variant{"Tofu", victim.NewDistanceSkewed, core.StealOne}
	TofuHalf      = Variant{"Tofu Half", victim.NewDistanceSkewed, core.StealHalf}
)

// ExperimentChunkSize is the steal granularity used by the scaled
// experiments: the UTS default of 20 is scaled down to 4 in proportion
// to the tree sizes (DESIGN.md §2); ablation A1 sweeps it.
const ExperimentChunkSize = 4

// Config is the experiment configuration of one run of v: ranks ranks
// placed one per node, traversing tree, with the scaled
// ExperimentChunkSize and the reference's immediate retry. Callers set
// any other core.Config field on the result; the node cost stays at
// core.DefaultNodeCost (1 µs per child, close to the paper's measured
// 970k nodes/second per rank) unless they set it. A caller that
// attaches a serving spec clears ImmediateRetry: idle ranks spin
// between arrivals, and unthrottled retries would dominate the event
// count without changing any serving metric.
func (v Variant) Config(ranks int, tree uts.Params, seed uint64) core.Config {
	return core.Config{
		Selector: v.Selector, Steal: v.Steal, Ranks: ranks,
		Placement: topology.OnePerNode, Tree: tree, Seed: seed,
		ChunkSize: ExperimentChunkSize, ImmediateRetry: true,
	}
}

// Execute runs the configurations as given, parallelizing across host
// CPUs. Results come back in input order; the first simulation error
// aborts the batch.
func Execute(cfgs []core.Config) ([]*core.Result, error) {
	out := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := core.Run(cfgs[i])
			if err != nil {
				errs[i] = fmt.Errorf("harness: run %d (n=%d, %v): %w",
					i, cfgs[i].Ranks, cfgs[i].Placement, err)
				return
			}
			out[i] = res
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fmtFloat renders a float compactly for tables.
func fmtFloat(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// fmtDur renders a virtual duration for tables.
func fmtDur(d sim.Duration) string { return d.String() }
