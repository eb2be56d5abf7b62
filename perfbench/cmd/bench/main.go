// Command bench runs one workload of the repository benchmark end to end
// and prints its end-to-end metrics as a JSON line. See ../../README.md.
package main

import (
	"sfcmdt/perfbench/bench"
	"sfcmdt/perfbench/e2e"
)

func main() {
	bench.Main(map[string]bench.Workload{
		"figure5":            e2e.Figure5,
		"aggressive-sampled": e2e.AggressiveSampled,
		"serve":              e2e.Serve,
	})
}
