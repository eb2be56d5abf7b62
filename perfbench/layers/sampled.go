package layers

import (
	"context"
	"sync/atomic"

	"sfcmdt/internal/snapshot"
	"sfcmdt/perfbench/bench"
	"sfcmdt/perfbench/e2e"
	"sfcmdt/sim"
)

// countingStore counts the checkpoint store's traffic.
type countingStore struct {
	sim.SnapshotStore
	puts, gets atomic.Int64
}

func (c *countingStore) Get(k snapshot.Key) (*snapshot.State, bool, error) {
	c.gets.Add(1)
	return c.SnapshotStore.Get(k)
}

func (c *countingStore) Put(k snapshot.Key, s *snapshot.State) error {
	c.puts.Add(1)
	return c.SnapshotStore.Put(k, s)
}

// AggressiveSampled is the traced aggressive-sampled run: the end-to-end
// set-up and rounds against a counting checkpoint store, with a span around
// each image build, interval preparation, round and operation, and a
// profile of the timed part. Restore and measure times come from the CPU
// profile, since sim.SampledRunParallel makes both calls.
func AggressiveSampled(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	res := newResult()
	tr := bench.NewTracer()
	ps, err := e2e.SampledPoints()
	if err != nil {
		return nil, err
	}
	store := &countingStore{SnapshotStore: sim.NewMemSnapshotStore()}
	imgs, ff, err := e2e.SampledSetup(ps, store, tr)
	if err != nil {
		return nil, err
	}
	setupEnd := len(tr.Spans())
	puts := store.puts.Load()

	prof, err := StartProfiles(opt.Work)
	if err != nil {
		return nil, err
	}
	gets0 := store.gets.Load()
	h0 := readHostClock()
	var t e2e.Timed
	ref, _, err := e2e.SampledRounds(ctx, ps, imgs, store, opt.Seconds, &t, tr, res)
	h1 := readHostClock()
	gets := store.gets.Load() - gets0
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		return res, nil
	}
	if err := e2e.CheckSampled(ps, imgs, store, ref, opt.Seed); err != nil {
		return e2e.Fail(res, err), nil
	}

	// Warm-up statistics are discarded by the sampler, so the cycles and
	// branch lookups of the whole detailed simulation are estimated by
	// scaling the measured ones by detailed/measured instructions.
	var sum sim.Stats
	var detailed, stepped, lookups float64
	for _, sr := range ref {
		if sr == nil {
			continue
		}
		sum.Merge(sr.Measured)
		scale := float64(sr.WarmInsts+sr.Measured.Retired) / float64(sr.Measured.Retired)
		detailed += float64(sr.WarmInsts + sr.Measured.Retired)
		stepped += float64(sr.Measured.Cycles-sr.Measured.CyclesElided) * scale
		lookups += float64(sr.Measured.BPredLookups) * scale
	}
	rounds := float64(t.Rounds)
	cpuSamples, err := prof.CPUSamples()
	if err != nil {
		return nil, err
	}
	alloc, err := prof.AllocSamples()
	if err != nil {
		return nil, err
	}
	fetchedScale := detailed / float64(sum.Retired)
	setProfile(res, Group(cpuSamples), alloc, stepped*rounds, float64(sum.Fetched)*fetchedScale*rounds, lookups*rounds, t.Rounds)
	setCounts(res, &sum)
	setHost(res, h0, h1, t.Rounds)
	ops := float64(res.Attempted)
	setPipeline(res, cpuSamples, ops, stepped*rounds)
	set(res, "sample.restore_ms", CumPrefix(cpuSamples, samplePkg+"Prepare")/ops/1e6)
	set(res, "sample.measure_ms", CumPrefix(cpuSamples, samplePkg+"(*Intervals).RunParallel")/ops/1e6)

	spans := tr.Spans()
	stotal, _, _ := bench.Totals(spans[:setupEnd], 0)
	set(res, "workload.build_ms", ms(stotal["workload.build"]))
	set(res, "sample.prepare_ms", ms(stotal["sample.prepare"]))
	set(res, "arch.ff_minst", float64(ff)/1e6)
	set(res, "arch.ff_mips", float64(ff)/stotal["sample.prepare"].Seconds()/1e6)
	set(res, "snapshot.puts", float64(puts))
	set(res, "snapshot.gets", float64(gets)/rounds)
	total, self, _ := bench.Totals(spans, setupEnd)
	set(res, "harness.self_ms", ms(self["harness.round"])/rounds)
	set(res, "trace.round_ms", ms(total["harness.round"])/rounds)
	return res, nil
}
