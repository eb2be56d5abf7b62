package e2e

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sfcmdt/perfbench/bench"
	"sfcmdt/sim"
)

// Figure5Budget is the per-point instruction budget of the figure5
// workload.
const Figure5Budget = 100_000

// Figure5Paper holds the paper's Figure 5 class averages of IPC normalised
// to the 48x32 LSQ: ENF within ~1% and NOT-ENF within ~3% of the LSQ on
// both SPECint and SPECfp (§3.1).
var Figure5Paper = map[string]float64{
	ClassKey("enf", "int"): 0.99, ClassKey("enf", "fp"): 0.99,
	ClassKey("not-enf", "int"): 0.97, ClassKey("not-enf", "fp"): 0.97,
}

// Figure5Variants are the figure's three columns, LSQ (the normaliser)
// first.
var Figure5Variants = []sim.Variant{sim.LSQ48x32, sim.MDTSFCEnf, sim.MDTSFCNot}

// Point is one (workload, configuration) cell of a figure.
type Point struct {
	W   sim.WorkloadSpec
	Cfg sim.Config
	Col int // index of the configuration among the figure's columns
}

// Figure5Points returns the figure's 20 workloads × 3 variants, workload
// outermost.
func Figure5Points() []Point {
	var ps []Point
	for _, w := range sim.Workloads() {
		for c, v := range Figure5Variants {
			ps = append(ps, Point{W: w, Cfg: sim.Baseline(v, Figure5Budget), Col: c})
		}
	}
	return ps
}

// Figure5ClassAverages returns the ENF and NOT-ENF class averages of a
// completed figure, stats indexed like Figure5Points.
func Figure5ClassAverages(ps []Point, stats []*sim.Stats) map[string]float64 {
	return classAverages(ps, stats, []string{"", "enf", "not-enf"})
}

// classAverages normalises every non-zero column to column 0 of the same
// workload and takes each class's geometric mean, as the harness's figures
// do. Points must be grouped by workload with column 0 first; a workload
// with any nil (failed) cell is left out.
func classAverages(ps []Point, stats []*sim.Stats, cols []string) map[string]float64 {
	failed := map[string]bool{}
	for i, p := range ps {
		if stats[i] == nil {
			failed[p.W.Name] = true
		}
	}
	norm := map[string][]float64{}
	var base float64
	for i, p := range ps {
		if failed[p.W.Name] {
			continue
		}
		if p.Col == 0 {
			base = stats[i].IPC()
			continue
		}
		k := ClassKey(cols[p.Col], string(p.W.Class))
		norm[k] = append(norm[k], stats[i].IPC()/base)
	}
	out := map[string]float64{}
	for k, xs := range norm {
		out[k] = bench.Geomean(xs)
	}
	return out
}

// Figure5 regenerates the paper's Figure 5 through one harness runner.
// Set-up is NewFigure5Runner: a fresh runner's image builds and reference
// streams. One operation is one (workload, variant) point of a
// regeneration on that runner.
func Figure5(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	ps := Figure5Points()
	var (
		runner *sim.Runner
		setups []time.Duration
	)
	for i := 0; i < SetupReps; i++ {
		runner = nil
		runtime.GC() // see SetupReps
		sw := bench.StartStopwatch()
		var err error
		if runner, err = NewFigure5Runner(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, _ := sw.Elapsed()
		setups = append(setups, d)
	}

	res := &bench.Result{Correct: true}
	var t Timed
	ref, allocMB, err := Figure5Rounds(ctx, runner, ps, opt.Seconds, &t, nil, res)
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		return res, nil
	}
	if err := CheckFigure5(ps, ref, opt.Seed); err != nil {
		return Fail(res, err), nil
	}
	errPP, err := bench.PaperErrPP(Figure5ClassAverages(ps, ref), Figure5Paper)
	if err != nil {
		return nil, err
	}
	if err := t.EndToEnd(res, setups, allocMB, t.PeakRSSMB(), errPP); err != nil {
		return nil, err
	}
	return res, nil
}

// NewFigure5Runner returns a fresh runner that has built every figure
// workload's image and materialised its reference stream, and has simulated
// nothing. The sim package has no call that only materialises, so each
// workload is run under the zero Config: the runner materialises the
// workload first, then the pipeline rejects the config before its first
// cycle. Each such call is recorded on tr as a "harness.materialize" span.
func NewFigure5Runner(tr *bench.Tracer) (*sim.Runner, error) {
	r := sim.NewRunner(Figure5Budget)
	r.Quiet = true
	for _, w := range sim.Workloads() {
		s := tr.Start("harness.materialize", -1)
		hr := r.Run(sim.Config{}, w)
		tr.End(s)
		if hr.Err == nil {
			return nil, fmt.Errorf("%s: the zero config was accepted", w.Name)
		}
	}
	if n := r.TotalRetired(); n != 0 {
		return nil, fmt.Errorf("materialising retired %d instructions", n)
	}
	return r, nil
}

// Figure5Rounds regenerates the figure on r in whole rounds until seconds
// have passed, recording operations in t and attempts in res. Every round
// must be bit-identical to the first, which it returns as the reference;
// a difference marks res incorrect. allocMB is the Go heap allocated per
// round. Each round is recorded on tr as a "harness.round" span.
func Figure5Rounds(ctx context.Context, r *sim.Runner, ps []Point, seconds float64, t *Timed, tr *bench.Tracer, res *bench.Result) (ref []*sim.Stats, allocMB float64, err error) {
	var mismatch error
	allocMB, err = RunRounds(ctx, t, seconds, func(ctx context.Context) error {
		s := tr.Start("harness.round", -1)
		got, err := figureRound(ctx, r, ps, t)
		tr.End(s)
		if err != nil {
			return err
		}
		res.Attempted += len(ps)
		if ref == nil {
			ref = got
		}
		for i := range ps {
			if *got[i] != *ref[i] && mismatch == nil {
				mismatch = fmt.Errorf("%s under %s: stats differ from the first regeneration", ps[i].W.Name, ps[i].Cfg.Name)
			}
		}
		return nil
	})
	if err == nil && mismatch != nil {
		Fail(res, mismatch)
	}
	return ref, allocMB, err
}

// figureRound runs every point once through the runner on Workers
// goroutines and records each in t.
func figureRound(ctx context.Context, r *sim.Runner, ps []Point, t *Timed) ([]*sim.Stats, error) {
	out := make([]*sim.Stats, len(ps))
	err := ParallelFor(ctx, len(ps), func(i int) error {
		t0 := time.Now()
		hr := r.Run(ps[i].Cfg, ps[i].W)
		d := time.Since(t0)
		if hr.Err != nil {
			return hr.Err
		}
		if hr.Stats.Retired != Figure5Budget {
			return fmt.Errorf("%s under %s retired %d instructions, want %d", ps[i].W.Name, ps[i].Cfg.Name, hr.Stats.Retired, Figure5Budget)
		}
		out[i] = hr.Stats
		t.Op(d, hr.Stats.Retired)
		return nil
	})
	return out, err
}

// CheckFigure5 re-simulates a seeded subset of points, two per variant,
// with sim.Run — a fresh pipeline driven by the golden model's trace, with
// no replay stream and no pooling — and requires bit-identical Stats.
func CheckFigure5(ps []Point, ref []*sim.Stats, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for col := range Figure5Variants {
		var idx []int
		for i, p := range ps {
			if p.Col == col {
				idx = append(idx, i)
			}
		}
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:2] {
			st, err := sim.Run(ps[i].Cfg, ps[i].W.Build())
			if err != nil {
				return fmt.Errorf("check %s under %s: %w", ps[i].W.Name, ps[i].Cfg.Name, err)
			}
			if *st != *ref[i] {
				return fmt.Errorf("check %s under %s: runner stats differ from a fresh sim.Run", ps[i].W.Name, ps[i].Cfg.Name)
			}
		}
	}
	return nil
}

// Fail marks res incorrect and reports why on standard error.
func Fail(res *bench.Result, err error) *bench.Result {
	res.Correct = false
	fmt.Fprintln(os.Stderr, "check failed:", err)
	return res
}
