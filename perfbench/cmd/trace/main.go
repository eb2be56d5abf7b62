// Command trace is the repository benchmark's traced run: it runs one
// workload with spans around every layer call, counters and profiles, and
// prints the per-layer metrics as a JSON line. See ../../README.md.
package main

import (
	"runtime"

	"sfcmdt/perfbench/bench"
	"sfcmdt/perfbench/layers"
)

func main() {
	runtime.MemProfileRate = layers.MemProfileRate
	bench.Main(map[string]bench.Workload{
		"figure5":            layers.Figure5,
		"aggressive-sampled": layers.AggressiveSampled,
		"serve":              layers.Serve,
	})
}
