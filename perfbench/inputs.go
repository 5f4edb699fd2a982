package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/benchmark"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/rng"
)

// fingerprint pins a workload graph: a change to the generators that
// alters the graph fails the run instead of silently moving the numbers.
type fingerprint struct {
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Hash     string `json:"hash"` // FNV-1a 64 over V, E and the edge list in order
}

func fingerprintOf(g *graph.Graph) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.NumVertices()))
	put(uint64(g.NumEdges()))
	for _, e := range g.Edges() {
		put(uint64(uint32(e.Src))<<32 | uint64(uint32(e.Dst)))
	}
	return fingerprint{Vertices: g.NumVertices(), Edges: g.NumEdges(), Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// buildInput realizes the workload graph through benchmark.Shapes and
// checks it against the recorded fingerprint.
func buildInput(sp spec) (*benchmark.ShapeData, error) {
	for _, s := range benchmark.Shapes() {
		if s.Name != sp.Shape {
			continue
		}
		sd, err := s.Build(sp.Vertices)
		if err != nil {
			return nil, fmt.Errorf("build %s/%d: %w", sp.Shape, sp.Vertices, err)
		}
		if got := fingerprintOf(sd.G); got != sp.Fingerprint {
			return nil, fmt.Errorf("input %s/%d fingerprint %+v, config.json records %+v: the generator changed",
				sp.Shape, sp.Vertices, got, sp.Fingerprint)
		}
		return sd, nil
	}
	return nil, fmt.Errorf("unknown shape %q", sp.Shape)
}

// problemSeed derives the seed of a run's k-th problem from -seed.
func problemSeed(seed uint64, k int) uint64 {
	return rng.New(seed ^ 0x9E37_79B9_7F4A_7C15*uint64(k+1)).Uint64()
}

func parseAlgorithm(name string) (mcmc.Algorithm, error) {
	switch name {
	case "asbp":
		return mcmc.AsyncGibbs, nil
	case "hsbp":
		return mcmc.Hybrid, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want asbp or hsbp)", name)
}
