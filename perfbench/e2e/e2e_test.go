package e2e

import (
	"math"
	"slices"
	"testing"
	"time"

	"sfcmdt/perfbench/bench"
	"sfcmdt/sim"
)

// A hand-built Figure 5 table: IPC = Retired/Cycles.
func TestFigure5PaperErrOnHandBuiltTable(t *testing.T) {
	st := func(retired, cycles uint64) *sim.Stats { return &sim.Stats{Retired: retired, Cycles: cycles} }
	a := sim.WorkloadSpec{Name: "a", Class: "int"}
	b := sim.WorkloadSpec{Name: "b", Class: "int"}
	c := sim.WorkloadSpec{Name: "c", Class: "fp"}
	d := sim.WorkloadSpec{Name: "d", Class: "fp"} // its NOT-ENF run failed
	var ps []Point
	for _, w := range []sim.WorkloadSpec{a, b, c, d} {
		for col := 0; col < 3; col++ {
			ps = append(ps, Point{W: w, Col: col})
		}
	}
	stats := []*sim.Stats{
		st(100, 100), st(98, 100), st(96, 100), // a: ENF 0.98, NOT-ENF 0.96
		st(200, 100), st(200, 100), st(192, 100), // b: ENF 1.00, NOT-ENF 0.96
		st(100, 100), st(99, 100), st(97, 100), // c: ENF 0.99, NOT-ENF 0.97
		st(100, 100), st(50, 100), nil, // d: left out
	}
	avg := Figure5ClassAverages(ps, stats)
	// int ENF = sqrt(0.98*1.00) = 0.989949...; the other cells are exact.
	want := (math.Abs(0.99-math.Sqrt(0.98)) + 0.01) / 4 * 100
	got, err := bench.PaperErrPP(avg, Figure5Paper)
	if err != nil || math.Abs(got-want) > 1e-9 || math.Abs(got-0.251263) > 1e-6 {
		t.Errorf("paper_err_pp = %.6f, %v; want %.6f", got, err, want)
	}
}

func TestGCTraceParse(t *testing.T) {
	var g GCTrace
	lines := []string{
		"gc 1 @0.012s 2%: 0.011+1.2+0.004 ms clock, 0.022+0.30/1.1/0.5+0.008 ms cpu, 4->6->2 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"sfcserve: listening on 127.0.0.1:1234",
		"gc 2 @0.030s 3%: 0.010+1.0+0.003 ms clock, 0.020+0.20/1.0/0.4+0.006 ms cpu, 5->7->3 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P",
	}
	for _, l := range lines {
		g.parse(l)
	}
	// Allocated: (6 - 0) + (7 - 2) MB; CPU: the sum of both cpu fields.
	if g.Cycles != 2 || g.AllocMB != 11 || math.Abs(g.CPUms-(0.022+0.30+1.1+0.5+0.008+0.020+0.20+1.0+0.4+0.006)) > 1e-9 {
		t.Errorf("parsed %+v", g)
	}
}

func TestServeSequence(t *testing.T) {
	seq, grid := ServeSequence(7)
	if len(seq) != 305 {
		t.Fatalf("sequence has %d requests, want 305", len(seq))
	}
	seen := map[string]int{}
	repeats := 0
	for _, r := range seq {
		if seen[r.Key()] > 0 {
			repeats++
		}
		seen[r.Key()]++
		if r.Insts > ServeBudgets[len(ServeBudgets)-1] {
			t.Errorf("%s exceeds the server cap", r.Key())
		}
	}
	if repeats != serveRepeats {
		t.Errorf("%d exact repeats, want %d", repeats, serveRepeats)
	}
	for i, at := range grid {
		p := Figure5Points()[i]
		r := seq[at]
		if r.Workload != p.W.Name || r.Insts != ServeGridBudget || r.BPred != "" {
			t.Errorf("grid point %d is %s", i, r.Key())
		}
	}
	again, _ := ServeSequence(7)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatal("same seed, different sequence")
		}
	}
}

func TestTimedRoundsScaleByUnstolenShare(t *testing.T) {
	var tm Timed
	tm.Op(10*time.Millisecond, 1_000_000)
	tm.Op(20*time.Millisecond, 1_000_000)
	tm.EndRound(time.Second, 0.5)
	tm.Op(30*time.Millisecond, 3_000_000)
	tm.EndRound(500*time.Millisecond, 0)
	if want := []float64{5, 10, 30}; !slices.Equal(tm.LatMS, want) {
		t.Errorf("latencies %v, want %v", tm.LatMS, want)
	}
	if want := []float64{2, 2}; !slices.Equal(tm.opsRate, want) {
		t.Errorf("ops rates %v, want %v", tm.opsRate, want)
	}
	if want := []float64{2, 6}; !slices.Equal(tm.mips, want) {
		t.Errorf("MIPS %v, want %v", tm.mips, want)
	}
}
