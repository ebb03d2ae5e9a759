// Package distws reproduces "Victim Selection and Distributed Work
// Stealing Performance: A Case Study" (Perarnau & Sato, IPDPS 2014) as
// a pure-Go system: a deterministic discrete-event simulation of
// MPI-style work stealing on a K Computer-like machine (6-D Tofu
// topology), the UTS benchmark, the paper's victim-selection
// strategies, its scheduling-latency metric, and an experiment harness
// regenerating every table and figure.
//
// Layout:
//
//   - internal/sim        — discrete-event kernel (virtual time)
//   - internal/topology   — 6-D mesh/torus machine, placements, latency
//   - internal/comm       — simulated message passing
//   - internal/uts        — the Unbalanced Tree Search workload
//   - internal/dag        — random task graphs (the §VII extension)
//   - internal/workstack  — chunked work stacks
//   - internal/rng        — seeded deterministic generators
//   - internal/sample     — alias-method discrete sampling
//   - internal/victim     — victim-selection strategies
//   - internal/term       — distributed termination detection
//   - internal/fault      — deterministic fault plans and injection
//   - internal/serve      — open-system job arrivals and admission
//   - internal/trace      — activity traces (paper §III)
//   - internal/obs        — event recorder, metrics registry and
//     the post-run analyses: occupancy, SL(x)/EL(x), steal pairing;
//     obs/causal holds the one Analysis every tool reads
//   - internal/core       — the distributed work-stealing engine
//   - internal/stats      — descriptive statistics for reports
//   - internal/harness    — experiments for every table and figure
//   - internal/analysis   — the static analyzers cmd/distwsvet runs
//   - cmd/uts (run, analyze, compare), cmd/experiments — tools
//
// The benchmarks in bench_test.go regenerate each figure's data at
// quick scale; use cmd/experiments for the full reproduction.
package distws
