package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func mustConfig(t *testing.T) *config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runCLI runs the command line in a scratch working directory and
// returns the parsed last line of standard output.
func runCLI(t *testing.T, args ...string) (result, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not the result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

func tinyEnv(t *testing.T, cfg *config, name string, trace bool) *env {
	return &env{name: name, sp: cfg.Profiles["tiny"][name], cfg: cfg, seed: 7,
		trace: trace, dir: t.TempDir(), log: io.Discard}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	cfg := mustConfig(t)
	if bf.RunSeconds != cfg.RunSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, config.json sizes the problem counts for %d", bf.RunSeconds, cfg.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] || strings.TrimSpace(w.Why) == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadOrder[i])
		}
		for _, p := range []string{"full", "tiny"} {
			if _, ok := cfg.Profiles[p][w.Name]; !ok {
				t.Errorf("config.json profile %s has no %s", p, w.Name)
			}
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s [%s], program reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s [%s], program reports %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at the tiny
// size, untraced and traced, through the command line.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			res, out := runCLI(t, "--workload", w, "--seed", "3", "--seconds", "0", "--trace", trace, "--profile", "tiny")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if !strings.Contains(out, "host: nproc=") {
				t.Errorf("%s: no host record in the output", w)
			}
			type def struct{ name, unit string }
			var want []def
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want = append(want, def{m.Name, m.Unit})
				}
			} else {
				for _, m := range bf.PerLayer {
					want = append(want, def{m.Name, m.Unit})
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, d.name, got, d.unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, d.name, got.Value)
				}
			}
		}
	}
}

// TestLayersReconcile checks that the traced breakdowns account for the
// wall time they split, within the configured residual.
func TestLayersReconcile(t *testing.T) {
	cfg := mustConfig(t)
	for _, w := range workloadOrder {
		rep, err := runWorkload(tinyEnv(t, cfg, w, true))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, m := range []string{"sbp.residual_share", "mcmc.residual_share"} {
			if v := rep.values[m]; v < 0 || v > cfg.ResidualShareBound {
				t.Errorf("%s: %s = %v, bound %v", w, m, v, cfg.ResidualShareBound)
			}
		}
		for _, n := range rep.notes {
			if strings.Contains(n, "do not reconcile") {
				t.Errorf("%s: %s", w, n)
			}
		}
	}
}

// TestInjectedWrongResultFails corrupts the first result of each
// workload before its check: the run must count it as a failure.
func TestInjectedWrongResultFails(t *testing.T) {
	cfg := mustConfig(t)
	for _, w := range workloadOrder {
		e := tinyEnv(t, cfg, w, false)
		e.inject = true
		rep, err := runWorkload(e)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.failed != 1 || rep.attempted < 2 {
			t.Errorf("%s: injected one wrong result, got attempted=%d failed=%d %v", w, rep.attempted, rep.failed, rep.problems)
		}
	}
}

// TestExactRepeat runs every workload twice at one seed: the exact
// counts and the quality metrics must be identical.
func TestExactRepeat(t *testing.T) {
	cfg := mustConfig(t)
	exact := []string{"mdl_norm", "nmi", "sbp.iterations", "merge.proposals", "mcmc.sweeps", "mcmc.proposals",
		"dist.sweeps", "stream.full_searches", "stream.escalations"}
	for _, w := range workloadOrder {
		var runs [2]map[string]float64
		for i := range runs {
			runs[i] = map[string]float64{}
			for _, trace := range []bool{false, true} {
				rep, err := runWorkload(tinyEnv(t, cfg, w, trace))
				if err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				if rep.failed != 0 {
					t.Fatalf("%s: %v", w, rep.problems)
				}
				for _, m := range exact {
					if v, ok := rep.values[m]; ok {
						runs[i][m] = v
					}
				}
			}
		}
		for _, m := range exact {
			if runs[0][m] != runs[1][m] {
				t.Errorf("%s: %s is %v, then %v at the same seed", w, m, runs[0][m], runs[1][m])
			}
		}
	}
}

func TestFingerprintMismatchFails(t *testing.T) {
	cfg := mustConfig(t)
	e := tinyEnv(t, cfg, "search-planted", false)
	e.sp.Fingerprint.Hash = "0000000000000000"
	if _, err := runWorkload(e); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("a changed input ran: err = %v", err)
	}
}

// TestNetWallTime checks the steal adjustment: a call that got three
// quarters of the CPU time it asked for ran at three quarters speed.
func TestNetWallTime(t *testing.T) {
	for _, c := range []struct {
		l    lap
		want float64
	}{
		{lap{wall: 2, busy: 3, stolen: 1}, 1.5},
		{lap{wall: 2, busy: 3}, 2},
		{lap{wall: 2}, 2}, // no CPU counters
	} {
		if got := c.l.net(); got != c.want {
			t.Errorf("%+v: net %v, want %v", c.l, got, c.want)
		}
	}
}
