package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
// net_wall_s is the workload's operation at W workers (search_s, dist_s
// or stream_s) and net_wall_w1_s the same operation on one worker or
// rank, each as wall time less the CPU time stolen meanwhile.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"net_wall_s", "s"},
	{"net_wall_w1_s", "s"},
	{"mdl_norm", "ratio"},
	{"nmi", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by the module they
// measure. Times are per problem, counts are totals over the traced
// problems.
var perLayer = []metricDef{
	{"sbp.iterations", "count"},
	{"sbp.residual_s", "s"},
	{"sbp.residual_share", "ratio"},
	{"merge.busy_s", "s"},
	{"merge.proposals", "count"},
	{"merge.phase_ms", "ms"},
	{"mcmc.busy_s", "s"},
	{"mcmc.sweeps", "count"},
	{"mcmc.proposals", "count"},
	{"mcmc.accept_rate", "ratio"},
	{"mcmc.sweep_ms", "ms"},
	{"mcmc.async_busy_s", "s"},
	{"mcmc.async_wall_s", "s"},
	{"mcmc.async_idle_s", "s"},
	{"mcmc.imbalance", "ratio"},
	{"mcmc.rebuild_s", "s"},
	{"mcmc.residual_s", "s"},
	{"mcmc.residual_share", "ratio"},
	{"mcmc.sweep_speedup", "ratio"},
	{"blockmodel.eval_ns", "ns"},
	{"blockmodel.eval_dense_ns", "ns"},
	{"blockmodel.mdl_ms", "ms"},
	{"blockmodel.rebuild_ms", "ms"},
	{"blockmodel.nnz", "count"},
	{"blockmodel.rebuild_bytes", "bytes"},
	{"parallel.speedup", "ratio"},
	{"parallel.efficiency", "ratio"},
	{"parallel.model_speedup", "ratio"},
	{"parallel.model_error", "ratio"},
	{"dist.sweeps", "count"},
	{"dist.sweep_ms", "ms"},
	{"dist.comm_s", "s"},
	{"dist.compute_s", "s"},
	{"dist.residual_s", "s"},
	{"dist.comm_share", "ratio"},
	{"dist.compute_skew", "ratio"},
	{"dist.bytes_per_sweep", "bytes"},
	{"dist.dial_s", "s"},
	{"dist.dial_retries", "count"},
	{"dist.speedup", "ratio"},
	{"stream.full_searches", "count"},
	{"stream.escalations", "count"},
	{"stream.full_s", "s"},
	{"stream.warm_p50_s", "s"},
	{"stream.replay_p50_s", "s"},
	{"graph.csr_build_ms", "ms"},
	{"serve.parse_ms", "ms"},
	{"serve.ingest_p50_s", "s"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.queries", "count"},
	{"serve.query_idle_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.gen_late_ms", "ms"},
	{"snapshot.shutdown_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
	{"host.wall_s", "s"},
	{"host.wall_w1_s", "s"},
	{"host.setup_s", "s"},
	{"host.steal_share", "ratio"},
}

// report accumulates one run: every checked operation and every metric.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string // flags that are not failures
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op counts one operation; a non-nil err (a failed request or a failed
// output check) counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metrics returns the defs' values in output form. An end-to-end metric
// the workload did not set is a bug; an unset per-layer metric is a layer
// the workload does not exercise and reads 0.
func (r *report) metrics(defs []metricDef, required bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && required {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload did not report %v", missing)
	}
	return out, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
