package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadOrder lists the workloads as BENCHMARK.json does.
var workloadOrder = []string{"search-planted", "dist-tcp", "serve-stream"}

var runners = map[string]func(*env, *report) error{
	"search-planted": runSearch,
	"dist-tcp":       runDist,
	"serve-stream":   runServe,
}

// env is what a workload runner gets: its inputs and the run settings.
type env struct {
	name    string
	sp      spec
	cfg     *config
	seed    uint64
	seconds float64
	trace   bool
	dir     string    // scratch directory for this run's files
	inject  bool      // corrupt the first result before its check (self-test)
	log     io.Writer // human-readable progress
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 25, "measurement budget in seconds: scales config.json's problem count")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	profile := fs.String("profile", "full", "config.json profile: full, or tiny for quick checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg, err := loadConfig()
	if err != nil {
		return fail(err)
	}
	specs, ok := cfg.Profiles[*profile]
	if !ok {
		return fail(fmt.Errorf("unknown profile %q", *profile))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := specs[n]; !ok || runners[n] == nil {
			return fail(fmt.Errorf("unknown workload %q (want one of %v or all)", n, workloadOrder))
		}
	}
	dir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}

	fmt.Fprintln(stdout, "host:", hostRecord())
	defs, required := endToEnd, true
	if *trace == 1 {
		defs, required = perLayer, false
	}
	final := result{Metrics: map[string]metricOut{}}
	for _, n := range names {
		e := &env{name: n, sp: specs[n], cfg: cfg, seed: *seed, seconds: *seconds,
			trace: *trace == 1, dir: dir, log: stderr}
		rep, err := runWorkload(e)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", n, err))
		}
		ms, err := rep.metrics(defs, required)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", n, err))
		}
		printTable(stdout, n, defs, ms, rep)
		final.Attempted += rep.attempted
		final.Failed += rep.failed
		for k, v := range ms {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload and records its peak memory.
func runWorkload(e *env) (*report, error) {
	rep := newReport()
	start := time.Now()
	if err := runners[e.name](e, rep); err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	fmt.Fprintf(e.log, "%s: done in %.1fs\n", e.name, time.Since(start).Seconds())
	return rep, nil
}

func printTable(w io.Writer, name string, defs []metricDef, ms map[string]metricOut, rep *report) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d\n", name, rep.attempted, rep.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for i, p := range rep.problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// timings collects a run's per-problem times at W workers or ranks
// (index 0) and at one (index 1): net wall time (see lap.net) and wall
// time.
type timings struct {
	nets, walls   [2][]float64
	stolen, asked float64 // CPU seconds over every timed interval
}

// measure times run as index i, after a full collection so that the
// garbage of the code run before does not land in its timing.
func (t *timings) measure(i int, run func() lap) {
	runtime.GC()
	l := run()
	t.nets[i] = append(t.nets[i], l.net())
	t.walls[i] = append(t.walls[i], l.wall)
	t.stolen += l.stolen
	t.asked += l.busy + l.stolen
}

// report sets the end-to-end times, the mean per-problem net wall times
// and the median set-up time net of the run's stolen share, and the host
// metrics: the same times as measured and the share of the CPU time the
// machine asked for in the timed intervals that was stolen. A set-up
// lasts a few ticks of the CPU counters, too few to count its own steal,
// and the set-ups are spread over the run as the problems are, so the
// run's stolen share stands in for theirs.
func (t *timings) report(r *report, setups []float64, log io.Writer) {
	fmt.Fprintf(log, "per-problem net wall s: %.4f | %.4f\n", t.nets[0], t.nets[1])
	stolen := ratio(t.stolen, t.asked)
	r.set("net_wall_s", mean(t.nets[0]))
	r.set("net_wall_w1_s", mean(t.nets[1]))
	r.set("setup_s", median(setups)*(1-stolen))
	r.set("host.wall_s", mean(t.walls[0]))
	r.set("host.wall_w1_s", mean(t.walls[1]))
	r.set("host.setup_s", median(setups))
	r.set("host.steal_share", stolen)
}

// problemCount is how many seeded problems a run measures: config.json's
// count for its run_seconds, scaled to --seconds. It depends on nothing
// else, so every commit measures the same problems for the same seed and
// --seconds.
func problemCount(e *env) int {
	return max(1, int(math.Round(float64(e.sp.Problems)*e.seconds/float64(e.cfg.RunSeconds))))
}

// problems runs body for problems 0 .. n-1, each with its own seed, and
// calls sample setupPerProblem times before each, so that the set-up
// timings are spread over the run as the problem timings are.
func problems(n int, seed uint64, sample func() error, body func(k int, seed uint64) error) error {
	for k := 0; k < n; k++ {
		for i := 0; i < setupPerProblem; i++ {
			if err := sample(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		if err := body(k, problemSeed(seed, k)); err != nil {
			return err
		}
	}
	return nil
}

// setupPerProblem is how many extra set-ups a run times before each
// problem; setup_s is the median over all of them.
const setupPerProblem = 2

// setupTimer times a workload's set-up: build makes the input and brings
// up what the problems run on, discard tears one down again.
type setupTimer[T any] struct {
	build   func() (T, error)
	discard func(T)
	times   []float64 // seconds per set-up
}

// run sets up once, after a full collection so that the garbage of the
// code run before does not land in the timing, and keeps the result.
func (s *setupTimer[T]) run() (T, error) {
	runtime.GC()
	t := time.Now()
	v, err := s.build()
	s.times = append(s.times, since(t))
	return v, err
}

// sample sets up once more for the timing only.
func (s *setupTimer[T]) sample() error {
	v, err := s.run()
	if err == nil && s.discard != nil {
		s.discard(v)
	}
	return err
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
