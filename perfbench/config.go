package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed config.json
var configJSON []byte

// config is config.json: the fixed parameters of every workload and the
// bounds the run checks itself against.
type config struct {
	// RunSeconds is the --seconds at which a run measures exactly each
	// workload's Problems; it is BENCHMARK.json's run_seconds.
	RunSeconds int `json:"run_seconds"`
	// Workers is the parallel width W: the worker count of the parallel
	// searches and served graphs, and the rank count of dist-tcp.
	Workers int `json:"workers"`
	// ModelErrorBound flags parallel.model_error above it.
	ModelErrorBound float64 `json:"model_error_bound"`
	// ResidualShareBound is the largest share of a layer's wall time the
	// per-layer breakdown may leave unaccounted for.
	ResidualShareBound float64 `json:"residual_share_bound"`
	// Profiles maps a profile name ("full" for the benchmark, "tiny" for
	// the self-test) to its workloads.
	Profiles map[string]map[string]spec `json:"profiles"`
}

// spec is one workload's inputs.
type spec struct {
	Shape     string `json:"shape"`     // benchmark.Shapes() name
	Vertices  int    `json:"vertices"`  // vertex budget passed to the shape's Build
	Algorithm string `json:"algorithm"` // asbp or hsbp
	// Problems is the number of seeded problems a run measures at
	// --seconds equal to RunSeconds, sized to take a little less than
	// that on a 2-vCPU Intel Xeon host.
	Problems int `json:"problems"`

	Sweeps int `json:"sweeps,omitempty"` // dist: fixed sweep count of a phase

	Batches     int     `json:"batches,omitempty"`      // serve: update batches after the initial load
	QueryRate   float64 `json:"query_rate,omitempty"`   // serve: open-loop queries per second
	IdleQueries int     `json:"idle_queries,omitempty"` // serve: queries with no ingest running

	Fingerprint fingerprint `json:"fingerprint"`
}

func loadConfig() (*config, error) {
	var c config
	dec := json.NewDecoder(bytes.NewReader(configJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	if c.Workers < 1 || c.RunSeconds < 1 {
		return nil, fmt.Errorf("config.json: workers %d and run_seconds %d must be positive", c.Workers, c.RunSeconds)
	}
	return &c, nil
}
