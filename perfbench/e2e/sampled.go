package e2e

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"sfcmdt/perfbench/bench"
	"sfcmdt/sim"
)

// SampledPlan is the aggressive-sampled workload's SMARTS plan: per
// interval, fast-forward functionally, warm the pipeline in detail with
// statistics discarded, then measure.
var SampledPlan = sim.SamplingPlan{FastForward: 40_000, Warm: 2_000, Measure: 3_000, Intervals: 4}

// SampledExtras are the Extra workloads added to the aggressive set: a
// quiescent pointer chase (idle-cycle elision), strided streams (the stride
// prefetcher) and a long-history branch pattern (TAGE).
var SampledExtras = []string{"ptrchase", "strided", "histdep"}

// Figure6Paper holds the paper's Figure 6 class averages of the MDT/SFC's
// IPC normalised to the 120x80 LSQ: ~9% below on SPECint and ~2% above on
// SPECfp (§3.2).
var Figure6Paper = map[string]float64{
	ClassKey("mdtsfc", "int"): 0.91, ClassKey("mdtsfc", "fp"): 1.02,
}

// FullFrontend turns on every frontend-realism option: TAGE, the stride
// prefetcher and the SFC/MDT pre-probe.
var FullFrontend = sim.Frontend{BPred: "tage", Prefetch: "stride", Preprobe: true}

// SampledWorkloads returns the aggressive-machine workloads: the paper's
// Figure 6 set followed by SampledExtras.
func SampledWorkloads() ([]sim.WorkloadSpec, error) {
	var ws []sim.WorkloadSpec
	for _, w := range sim.Workloads() {
		if w.InAggressive {
			ws = append(ws, w)
		}
	}
	for _, n := range SampledExtras {
		w, ok := sim.Workload(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// SampledConfigs returns the three measured configurations: the 120x80 LSQ
// (the normaliser), the MDT/SFC with total-order ENF, and the same MDT/SFC
// behind the full frontend.
func SampledConfigs() ([]sim.Config, error) {
	full := sim.Aggressive(sim.MDTSFCTotal, 0)
	if err := FullFrontend.Apply(&full); err != nil {
		return nil, err
	}
	return []sim.Config{sim.Aggressive(sim.LSQ120x80, 0), sim.Aggressive(sim.MDTSFCTotal, 0), full}, nil
}

// SampledPoints returns every (workload, configuration) pair, workload
// outermost.
func SampledPoints() ([]Point, error) {
	ws, err := SampledWorkloads()
	if err != nil {
		return nil, err
	}
	cfgs, err := SampledConfigs()
	if err != nil {
		return nil, err
	}
	var ps []Point
	for _, w := range ws {
		for c, cfg := range cfgs {
			ps = append(ps, Point{W: w, Cfg: cfg, Col: c})
		}
	}
	return ps, nil
}

// SampledClassAverages returns the MDT/SFC's Figure 6 class averages over
// the paper's workloads (Extras excluded). A workload whose measurement
// failed (nil stats) is left out of its class.
func SampledClassAverages(ps []Point, stats []*sim.Stats) map[string]float64 {
	var fps []Point
	var fst []*sim.Stats
	for i, p := range ps {
		if p.W.Extra || p.Col > 1 {
			continue
		}
		fps, fst = append(fps, p), append(fst, stats[i])
	}
	return classAverages(fps, fst, []string{"", "mdtsfc"})
}

// AggressiveSampled measures the Figure 6 machine SMARTS-style through
// sim.SampledRunParallel with Workers interval workers. Set-up is
// SampledSetup: image builds and every workload's intervals, fast-forwarded
// and checkpointed into a snapshot store. One operation is one sampled
// (workload, configuration) measurement, which restores its intervals from
// the store.
func AggressiveSampled(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	ps, err := SampledPoints()
	if err != nil {
		return nil, err
	}
	var (
		imgs   map[string]*sim.Image
		store  sim.SnapshotStore
		setups []time.Duration
	)
	for i := 0; i < SetupReps; i++ {
		imgs, store = nil, nil
		runtime.GC() // see SetupReps
		sw := bench.StartStopwatch()
		store = sim.NewMemSnapshotStore()
		if imgs, _, err = SampledSetup(ps, store, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, _ := sw.Elapsed()
		setups = append(setups, d)
	}

	res := &bench.Result{Correct: true}
	var t Timed
	ref, allocMB, err := SampledRounds(ctx, ps, imgs, store, opt.Seconds, &t, nil, res)
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		return res, nil
	}
	if err := CheckSampled(ps, imgs, store, ref, opt.Seed); err != nil {
		return Fail(res, err), nil
	}
	stats := make([]*sim.Stats, len(ref))
	for i, sr := range ref {
		if sr != nil {
			stats[i] = sr.Measured
		}
	}
	errPP, err := bench.PaperErrPP(SampledClassAverages(ps, stats), Figure6Paper)
	if err != nil {
		return nil, err
	}
	if err := t.EndToEnd(res, setups, allocMB, t.PeakRSSMB(), errPP); err != nil {
		return nil, err
	}
	return res, nil
}

// SampledSetup builds each workload's image and prepares its intervals —
// functional fast-forward and a checkpoint of every interval start into
// store — and returns the images and the instructions fast-forwarded. The
// sim package has no call that only prepares, so each workload is measured
// under the zero Config: sim.SampledRunParallel prepares the intervals
// first, then the pipeline rejects the config before its first cycle. Each
// build and each preparation is recorded on tr as a "workload.build" or
// "sample.prepare" span.
func SampledSetup(ps []Point, store sim.SnapshotStore, tr *bench.Tracer) (imgs map[string]*sim.Image, ffInsts uint64, err error) {
	imgs = map[string]*sim.Image{}
	for _, p := range ps {
		if imgs[p.W.Name] != nil {
			continue
		}
		s := tr.Start("workload.build", -1)
		img := p.W.Build()
		tr.End(s)
		s = tr.Start("sample.prepare", -1)
		sr, err := sim.SampledRunParallel(sim.Config{}, img, SampledPlan, store, Workers)
		tr.End(s)
		if err == nil {
			return nil, 0, fmt.Errorf("%s: the zero config was accepted", p.W.Name)
		}
		if sr == nil || sr.Intervals != 0 {
			return nil, 0, fmt.Errorf("%s: preparing intervals: %w", p.W.Name, err)
		}
		imgs[p.W.Name] = img
		ffInsts += sr.FFInsts
	}
	return imgs, ffInsts, nil
}

// SampledRounds measures every point in whole rounds until seconds have
// passed, recording operations in t and attempts and failures in res. A
// failed measurement is counted, not timed, and reported once; the run goes
// on so every round attempts the same operations. Every round must be
// bit-identical to the first, which it returns as the reference; a
// difference marks res incorrect. allocMB is the Go heap allocated per
// round. Rounds and operations are recorded on tr as "harness.round" and
// "sample.op" spans.
func SampledRounds(ctx context.Context, ps []Point, imgs map[string]*sim.Image, store sim.SnapshotStore, seconds float64, t *Timed, tr *bench.Tracer, res *bench.Result) (ref []*sim.SampledResult, allocMB float64, err error) {
	var mismatch error
	reported := map[int]bool{}
	allocMB, err = RunRounds(ctx, t, seconds, func(ctx context.Context) error {
		round := tr.Start("harness.round", -1)
		defer tr.End(round)
		got := make([]*sim.SampledResult, len(ps))
		for i, p := range ps {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			s := tr.Start("sample.op", round)
			sr, err := SampledOp(p, imgs, store, Workers)
			tr.End(s)
			res.Attempted++
			if err != nil {
				res.Failed++
				if !reported[i] {
					reported[i] = true
					fmt.Fprintln(os.Stderr, "operation failed:", err)
				}
				continue
			}
			t.Op(time.Since(t0), sr.WarmInsts+sr.Measured.Retired)
			got[i] = sr
		}
		if ref == nil {
			ref = got
		}
		for i := range ps {
			same := got[i] == nil && ref[i] == nil ||
				got[i] != nil && ref[i] != nil && SameSampled(got[i], ref[i])
			if !same && mismatch == nil {
				mismatch = fmt.Errorf("%s under %s: sampled result differs between rounds", ps[i].W.Name, ps[i].Cfg.Name)
			}
		}
		return nil
	})
	if err == nil && mismatch != nil {
		Fail(res, mismatch)
	}
	return ref, allocMB, err
}

// SampledOp is one sampled measurement, checked by CheckPlan.
func SampledOp(p Point, imgs map[string]*sim.Image, store sim.SnapshotStore, parallel int) (*sim.SampledResult, error) {
	sr, err := sim.SampledRunParallel(p.Cfg, imgs[p.W.Name], SampledPlan, store, parallel)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", p.W.Name, p.Cfg.Name, err)
	}
	return sr, CheckPlan(p, sr)
}

// CheckPlan checks a sampled result's instruction accounting: each interval
// simulates exactly W+M instructions in detail, and since warm-up ends at
// the cycle of the W-th retirement, a cycle that retires several
// instructions at once moves up to Width-1 of them from the measured part
// into the warm part.
func CheckPlan(p Point, sr *sim.SampledResult) error {
	k := uint64(SampledPlan.Intervals)
	measured, detailed := sr.Measured.Retired, sr.WarmInsts+sr.Measured.Retired
	if detailed != k*(SampledPlan.Warm+SampledPlan.Measure) ||
		measured > k*SampledPlan.Measure || measured+k*uint64(p.Cfg.Width-1) < k*SampledPlan.Measure {
		return fmt.Errorf("%s under %s: %d warm + %d measured instructions do not fit plan %v",
			p.W.Name, p.Cfg.Name, sr.WarmInsts, measured, SampledPlan)
	}
	return nil
}

// SameSampled reports whether two sampled results are bit-identical.
func SameSampled(a, b *sim.SampledResult) bool {
	return *a.Measured == *b.Measured && a.IPC == b.IPC && a.CV == b.CV &&
		a.Intervals == b.Intervals && a.WarmInsts == b.WarmInsts &&
		slices.Equal(a.IntervalIPC, b.IntervalIPC)
}

// CheckSampled checks a seeded subset of points, one per configuration:
// measurement with one interval worker must be bit-identical to the
// Workers-wide measurement, and a single-interval plan with no warm-up and
// no fast-forward must equal sim.Run at the same budget.
func CheckSampled(ps []Point, imgs map[string]*sim.Image, store sim.SnapshotStore, ref []*sim.SampledResult, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for col := 0; col < 3; col++ {
		var idx []int
		for i, p := range ps {
			if p.Col == col && ref[i] != nil {
				idx = append(idx, i)
			}
		}
		i := idx[rng.Intn(len(idx))]
		p := ps[i]
		serial, err := SampledOp(p, imgs, store, 1)
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		if !SameSampled(serial, ref[i]) {
			return fmt.Errorf("check %s under %s: 1-worker and %d-worker sampled results differ", p.W.Name, p.Cfg.Name, Workers)
		}
		const n = 5_000
		one, err := sim.SampledRun(p.Cfg, imgs[p.W.Name], sim.SamplingPlan{Measure: n, Intervals: 1}, nil)
		if err != nil {
			return fmt.Errorf("check %s under %s: %w", p.W.Name, p.Cfg.Name, err)
		}
		cfg := p.Cfg
		cfg.MaxInsts = n
		full, err := sim.Run(cfg, imgs[p.W.Name])
		if err != nil {
			return fmt.Errorf("check %s under %s: %w", p.W.Name, p.Cfg.Name, err)
		}
		if *one.Measured != *full {
			return fmt.Errorf("check %s under %s: {Measure: %d, Intervals: 1} differs from sim.Run at %d instructions", p.W.Name, p.Cfg.Name, n, n)
		}
	}
	return nil
}
