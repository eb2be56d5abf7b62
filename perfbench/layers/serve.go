package layers

import (
	"context"
	"net"
	"net/http"
	"slices"
	"time"

	"sfcmdt/internal/replay"
	"sfcmdt/internal/service"
	"sfcmdt/perfbench/bench"
	"sfcmdt/perfbench/e2e"
	"sfcmdt/sim"
)

// Serve is the traced serve run: the end-to-end serve run with the service
// hosted in this process, so the timed rounds can be profiled, and every
// HTTP round trip recorded as a span under its round. The service's own
// counters come from /v1/stats and from each response's Stats and elapsed
// time.
func Serve(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	var (
		prof *Profiler
		h0   hostClock
	)
	run, err := e2e.RunServe(ctx, opt, e2e.ServeHooks{
		Host: hostService,
		Timed: func() (err error) {
			prof, err = StartProfiles(opt.Work)
			h0 = readHostClock()
			return err
		},
	})
	h1 := readHostClock()
	if prof != nil {
		if perr := prof.Stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	res := newResult()
	for _, rd := range run.Rounds {
		res.Attempted += len(rd.Calls)
	}
	if res.Failed, err = run.Check(opt.Seed); err != nil {
		return e2e.Fail(res, err), nil
	}

	// Every round sends the same requests to an identically warmed server,
	// so the backend runs of the first round stand for every round.
	var sum sim.Stats
	var runs float64
	for _, c := range run.Rounds[0].Calls {
		if c.Err == nil && c.Resp.Executed() {
			sum.Merge(c.Resp.Stats)
			runs++
		}
	}
	setCounts(res, &sum)
	n := len(run.Rounds)
	rounds := float64(n)
	stepped := float64(sum.Cycles-sum.CyclesElided) * rounds
	cpuSamples, err := prof.CPUSamples()
	if err != nil {
		return nil, err
	}
	alloc, err := prof.AllocSamples()
	if err != nil {
		return nil, err
	}
	setProfile(res, Group(cpuSamples), alloc, stepped, float64(sum.Fetched)*rounds, float64(sum.BPredLookups)*rounds, n)
	setHost(res, h0, h1, n)
	setPipeline(res, cpuSamples, runs*rounds, stepped)

	var rtt, backend, overhead []float64
	var bytes, calls float64
	var st e2e.ServerStats
	var wall time.Duration
	for _, rd := range run.Rounds {
		var spans []bench.Span
		spans = append(spans, bench.Span{Name: "harness.round", Parent: -1, End: rd.Wall})
		for _, c := range rd.Calls {
			spans = append(spans, bench.Span{Name: "http.run", Parent: 0, Start: c.Start, End: c.Start + c.RTT})
			if c.Err != nil {
				continue
			}
			rtt = append(rtt, ms(c.RTT))
			bytes += float64(c.Bytes)
			calls++
			if c.Resp.Executed() {
				backend = append(backend, c.Resp.ElapsedMS)
				overhead = append(overhead, ms(c.RTT)-c.Resp.ElapsedMS)
			}
		}
		_, self, _ := bench.Totals(spans, 0)
		set(res, "harness.self_ms", res.Metrics["harness.self_ms"].Value+ms(self["harness.round"]))
		st.CacheHits += rd.Stats.CacheHits
		st.Executed += rd.Stats.Executed
		st.Coalesced += rd.Stats.Coalesced
		st.ReplayStoreHits += rd.Stats.ReplayStoreHits
		st.ReplayMaterialized += rd.Stats.ReplayMaterialized
		wall += rd.Wall
	}
	set(res, "harness.self_ms", res.Metrics["harness.self_ms"].Value/rounds)
	set(res, "trace.round_ms", ms(wall)/rounds)
	set(res, "service.rtt_ms_p50", bench.Median(rtt))
	set(res, "service.backend_ms_p50", bench.Median(backend))
	set(res, "service.overhead_ms_p50", bench.Median(overhead))
	set(res, "service.cache_hits", float64(st.CacheHits)/rounds)
	set(res, "service.executed", float64(st.Executed)/rounds)
	set(res, "service.coalesced", float64(st.Coalesced)/rounds)
	set(res, "service.response_kb", bytes/calls/1024)
	set(res, "replay.store_hits", float64(st.ReplayStoreHits)/rounds)
	set(res, "replay.materialized", float64(st.ReplayMaterialized)/rounds)
	return res, nil
}

// hostService starts, in this process, the service sfcserve runs with the
// benchmark's flags (-workers 2, -max-insts at the largest serve budget,
// every other flag at its default) over the stream store in dir, on a
// loopback port. Halt drains it as sfcserve does on SIGTERM.
func hostService(ctx context.Context, dir string) (*e2e.Server, error) {
	streams, err := replay.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{
		Workers:      e2e.Workers,
		CacheEntries: 1024,
		DefaultInsts: 20_000,
		MaxInsts:     slices.Max(e2e.ServeBudgets),
		MaxFFInsts:   50_000_000,
		Streams:      streams,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return &e2e.Server{
		URL: "http://" + ln.Addr().String(),
		Halt: func() error {
			svc.BeginDrain()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				return err
			}
			return svc.Close(ctx)
		},
	}, nil
}
