// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points a user reaches — sbp.Run, a
// two-rank dist.RunRank cluster over loopback TCP, and an sbpd-style
// serve.Server behind its HTTP handler — and prints the end-to-end
// metrics, or with -trace 1 the per-layer breakdown, as one JSON object
// on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload search-planted --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25   # every workload, one table
//
// Inputs. Every workload builds its graph through the repository's public
// constructors (benchmark.Shapes, which wraps gen.TableOneSpec/gen.Generate)
// at the size config.json names, and checks the graph's fingerprint
// (vertex count, edge count, FNV-1a hash of the edge list) against the
// one recorded there, so a change under internal/gen or internal/benchmark
// cannot silently change a workload. The -seed argument derives every
// other random choice: the search seeds, the distributed start states,
// the order in which edges stream into the server and the query
// schedule. The same seed gives the same inputs, and the worker and rank
// counts are fixed in config.json (W = 2), never taken from GOMAXPROCS.
//
// Each workload solves a fixed number of seeded problems one after
// another, each at W workers (or ranks) and again at one. config.json
// names the count for its run_seconds (BENCHMARK.json's), sized so that
// a run takes a little less than that on a 2-vCPU Intel Xeon host;
// another -seconds scales it. The count does not depend on how fast the
// host or the code is, so every commit measures the same problems for a
// seed, and many short problems average out the chains' varying lengths.
//
// Times. On a virtual machine the hypervisor takes CPU time from the
// guest while the guest wants to run ("steal"), and on a shared host
// that can be a quarter of the CPU time in one minute and none in the
// next; the same computation then takes a third longer. The benchmark
// reads the machine's CPU counters in /proc/stat (summed over the CPUs,
// in 1/100 s ticks) around every timed call, and reports net_wall_s and
// net_wall_w1_s: the call's wall time times the share of the CPU time
// the machine asked for in the call (busy plus stolen) that it got
// (busy). Steal slows whatever runs while it happens, so that share is
// the rate at which the timed code ran, and the product is the time the
// call would have taken with nothing stolen. It is an estimate: while a
// stolen worker holds up a sweep the other waits without asking for CPU,
// so under heavy steal the net time of W workers still reads a little
// high. On a machine without steal the net times equal the wall times.
// Each time is a mean over the problems. setup_s is the median of the
// set-up repeated before every problem, so that it, too, is sampled
// across the whole run, times one less the stolen share of the CPU time
// asked for in all timed calls: a set-up lasts too few ticks of the CPU
// counters to count its own steal. The traced run also reports the times
// as measured, host.wall_s, host.wall_w1_s and host.setup_s, and that
// stolen share, host.steal_share. The quality metrics are means over
// the problems, and they and the exact counts (sweeps, proposals,
// iterations) repeat exactly at a fixed seed.
//
// Correctness. Every operation is checked and counted: the MDL of each
// search is recomputed from the returned membership, both ranks of a
// distributed phase must end with identical memberships whose recomputed
// MDL matches the agreed one, every HTTP request must succeed (429 and
// 503 count as failures), the served partition's MDL is recomputed from
// the served assignment, and in the traced run the served partition must
// equal an offline stream.Detector replay bit for bit. The traced pass
// must reproduce the exact counts, the MDL and the partition of the
// untraced pass.
//
// Tracing. The traced run (-trace 1) measures the problems untraced,
// then runs them again (serve-stream: the first one) while recording
// spans in this program around each public call (sbp.Run with its
// iterations rebuilt from Options.Progress, merge.Phase and mcmc.Run
// durations, the blockmodel probes, each rank's Dial and RunRank, each
// HTTP request, the offline replay). Per-layer self time
// comes from those spans; the sweep records (mcmc.SweepRecord),
// dist.RankStats and the server's stats JSON give the finer split. The
// spans are written to .bench_build/run/ as JSON lines. The sbp and mcmc
// breakdowns are checked: what the layers below leave unaccounted must
// stay within config.json's residual_share_bound. The dist breakdown is
// not a check: RankStats reports the time in collectives but no compute
// time, so dist.compute_s is the phase wall time minus dist.comm_s by
// definition, and dist.residual_s is only the launch and join delay of
// the rank goroutines.
//
// A layer a workload does not exercise reports 0 for its metrics.
package main
