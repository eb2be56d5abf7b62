package layers

import (
	"context"
	"fmt"

	"sfcmdt/perfbench/bench"
	"sfcmdt/perfbench/e2e"
	"sfcmdt/sim"
)

// Figure5 is the traced figure5 run: the end-to-end set-up and rounds,
// through the program's harness runner, with a span around each set-up
// call and each round and a profile of the timed part. Pipeline reset and
// run times come from the CPU profile, since the runner makes those calls.
func Figure5(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	res := newResult()
	ps := e2e.Figure5Points()
	tr := bench.NewTracer()
	// Image builds are timed on their own: the runner builds each image and
	// materialises its stream inside one call.
	for _, w := range sim.Workloads() {
		s := tr.Start("workload.build", -1)
		w.Build()
		tr.End(s)
	}
	runner, err := e2e.NewFigure5Runner(tr)
	if err != nil {
		return nil, err
	}
	if n := runner.Replay.Stats().Materialized; n != uint64(len(sim.Workloads())) {
		return nil, fmt.Errorf("set-up materialised %d streams, want one per workload", n)
	}
	var records int
	for _, w := range sim.Workloads() {
		v, err := runner.Replay.Source(w.Build(), "", e2e.Figure5Budget, nil)
		if err != nil {
			return nil, err
		}
		records += v.Len()
	}
	setupEnd := len(tr.Spans())

	prof, err := StartProfiles(opt.Work)
	if err != nil {
		return nil, err
	}
	h0 := readHostClock()
	var t e2e.Timed
	ref, _, err := e2e.Figure5Rounds(ctx, runner, ps, opt.Seconds, &t, tr, res)
	h1 := readHostClock()
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		return res, nil
	}
	if err := e2e.CheckFigure5(ps, ref, opt.Seed); err != nil {
		return e2e.Fail(res, err), nil
	}

	var sum sim.Stats
	for _, st := range ref {
		sum.Merge(st)
	}
	rounds := float64(t.Rounds)
	stepped := float64(sum.Cycles-sum.CyclesElided) * rounds
	cpuSamples, err := prof.CPUSamples()
	if err != nil {
		return nil, err
	}
	alloc, err := prof.AllocSamples()
	if err != nil {
		return nil, err
	}
	setProfile(res, Group(cpuSamples), alloc, stepped, float64(sum.Fetched)*rounds, float64(sum.BPredLookups)*rounds, t.Rounds)
	setCounts(res, &sum)
	setHost(res, h0, h1, t.Rounds)
	setPipeline(res, cpuSamples, float64(res.Attempted), stepped)
	set(res, "harness.self_ms", CumOutside(cpuSamples, harnessRun, pipelinePkg+"reset", pipelinePkg+"Run")/rounds/1e6)

	spans := tr.Spans()
	stotal, _, _ := bench.Totals(spans[:setupEnd], 0)
	set(res, "workload.build_ms", ms(stotal["workload.build"]))
	set(res, "replay.materialize_ms", ms(stotal["harness.materialize"]-stotal["workload.build"]))
	set(res, "replay.records", float64(records))
	total, _, _ := bench.Totals(spans, setupEnd)
	set(res, "trace.round_ms", ms(total["harness.round"])/rounds)
	return res, nil
}
