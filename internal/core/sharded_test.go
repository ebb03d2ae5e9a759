package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/fault"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// runDump executes cfg and returns the canonical golden dump — the same byte-exact surface TestGoldenFig9
// gates, so "two runs are equivalent" below always means "every
// externally visible output matches".
func runDump(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenDump(t, cfg, res)
}

// TestShardedGoldenFig9 is the multi-shard golden gate: the Figure 9
// golden configuration must reproduce the seed-era golden file
// byte-for-byte when partitioned across 2 and 4 shard kernels. With
// shards=1 Run bypasses the sharded path entirely (TestGoldenFig9
// covers it); here every barrier, staging merge, and serialized
// endgame window has to land on the exact sequential outputs.
func TestShardedGoldenFig9(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig9.txt"))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenFig9 -update first): %v", err)
	}
	for _, shards := range []int{2, 4} {
		cfg := goldenFig9Config()
		cfg.Shards = shards
		got := runDump(t, cfg)
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: sharded run drifted from the sequential golden\n%s",
				shards, diffHint(want, got))
		}
	}
}

// TestShardedDeterminismMatrix pins the shard-count invariance
// contract on Figure-9-style configurations: the same (config, seed)
// run at shards ∈ {1, 2, 3, 4, 8} produces byte-identical canonical
// dumps. Three is deliberately in the set — 96 ranks do not divide
// evenly by it, so the contiguous partition has unequal shards.
func TestShardedDeterminismMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  victim.Factory
	}{
		{"DistanceSkewed", victim.NewDistanceSkewed},
		{"RoundRobin", victim.NewRoundRobin},
		{"UniformRandom", victim.NewUniformRandom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Tree:          uts.MustPreset("H-TINY").Params,
				Ranks:         96,
				Placement:     topology.OnePerNode,
				Selector:      tc.sel,
				Steal:         StealOne,
				Seed:          9,
				CollectTrace:  true,
				CollectEvents: true,
			}
			base.Shards = 1
			want := runDump(t, base)
			for _, shards := range []int{2, 3, 4, 8} {
				cfg := base
				cfg.Shards = shards
				if got := runDump(t, cfg); !bytes.Equal(got, want) {
					t.Fatalf("shards=%d diverged from shards=1\n%s",
						shards, diffHint(want, got))
				}
			}
		})
	}
}

// TestShardedRepeatBitIdentical pins the hard determinism contract on
// an adversarial configuration: 8 ranks per node under distance-skewed
// selection with half-stealing maximizes symmetric same-instant
// collisions (equidistant thieves firing at the same victim in the
// same nanosecond), the one regime where the sharded tie order is
// allowed to differ from the sequential kernel's insertion order. Even
// there, a fixed (config, seed, shards) triple must be bit-identical
// across repetitions — wall-clock interleaving must never leak in.
func TestShardedRepeatBitIdentical(t *testing.T) {
	cfg := Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         96,
		Placement:     topology.EightRoundRobin,
		Selector:      victim.NewDistanceSkewed,
		Steal:         StealHalf,
		Seed:          42,
		Shards:        2,
		CollectTrace:  true,
		CollectEvents: true,
	}
	first := runDump(t, cfg)
	for run := 2; run <= 3; run++ {
		if got := runDump(t, cfg); !bytes.Equal(got, first) {
			t.Fatalf("run %d of identical (config, shards) differed from run 1\n%s",
				run, diffHint(first, got))
		}
	}
}

// TestShardedEquivalenceDensePlacement checks shard-count invariance
// on the dense 8-ranks-per-node placement for the selectors whose
// steal traffic is collision-free there (round-robin and uniform
// random spread requests instead of concentrating them on near
// victims).
func TestShardedEquivalenceDensePlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  victim.Factory
	}{
		{"RoundRobin", victim.NewRoundRobin},
		{"UniformRandom", victim.NewUniformRandom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Tree:          uts.MustPreset("H-TINY").Params,
				Ranks:         96,
				Placement:     topology.EightRoundRobin,
				Selector:      tc.sel,
				Steal:         StealHalf,
				Seed:          42,
				CollectTrace:  true,
				CollectEvents: true,
			}
			want := runDump(t, base)
			cfg := base
			cfg.Shards = 2
			if got := runDump(t, cfg); !bytes.Equal(got, want) {
				t.Fatalf("shards=2 diverged from sequential\n%s", diffHint(want, got))
			}
		})
	}
}

// TestShardedRejects pins the validation and capability boundaries of
// the sharded path.
func TestShardedRejects(t *testing.T) {
	valid := func() Config {
		return Config{
			Tree:      uts.MustPreset("T3S").Params,
			Ranks:     8,
			Placement: topology.OnePerNode,
			Seed:      1,
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative", func(c *Config) { c.Shards = -1 }, "shards"},
		{"more shards than ranks", func(c *Config) { c.Shards = 9 }, "must not exceed ranks"},
		{"jitter latency", func(c *Config) {
			c.Shards = 2
			c.Latency = topology.NewJitterLatency(topology.DefaultLatency(), 0.1, 5)
		}, "cannot be sharded"},
		{"link faults", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.1}}}
		}, "cannot be sharded"},
		{"send straggler", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Stragglers: []fault.Straggler{{Rank: 1, Send: 2}}}
		}, "cannot be sharded"},
		{"crash plan", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: sim.Time(sim.Millisecond)}}}
		}, "cannot be sharded"},
		{"serving", func(c *Config) {
			c.Shards = 2
			c.Serve = serveTestSpec()
		}, "cannot be sharded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("invalid sharded config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShardedWindowStress drives many barrier crossings with all the
// concurrent machinery loaded — dense placement, half-stealing,
// metrics, event rings — across several shard counts.
// Its real job is under `make race`: any unsynchronized access in the
// routers, staging queues, shared selector state, or the detector's
// per-rank arrays trips the race detector here.
func TestShardedWindowStress(t *testing.T) {
	for _, shards := range []int{2, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{
				Tree:          uts.MustPreset("H-TINY").Params,
				Ranks:         80,
				Placement:     topology.EightRoundRobin,
				Selector:      victim.NewDistanceSkewed,
				Steal:         StealHalf,
				Seed:          uint64(1000 + shards),
				Shards:        shards,
				CollectTrace:  true,
				CollectEvents: true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, res)
		})
	}
}
