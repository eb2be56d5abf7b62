// Package layers is the benchmark's traced run. It drives each layer of the
// simulator itself — image build, stream materialisation, interval
// preparation, pipeline reset and run, sampled measurement, HTTP round trip
// — records a span around every such call and counts at the same
// boundaries, profiles the in-process workloads, and reduces all of it to
// the per-layer metrics. It is the only part of the benchmark that imports
// internal packages.
package layers

import (
	"runtime/metrics"
	"syscall"
	"time"

	"sfcmdt/perfbench/bench"
	"sfcmdt/sim"
)

// Names of every per-layer metric with its unit. Every traced run reports
// all of them; a layer a workload does not exercise (or that the traced run
// cannot see, like the profile of an out-of-process server) reads 0.
var Names = map[string]string{
	"workload.build_ms": "ms",
	"arch.ff_mips":      "Minst/s", "arch.ff_minst": "Minst",
	"snapshot.puts": "count", "snapshot.gets": "count",
	"replay.materialize_ms": "ms", "replay.records": "count", "replay.store_hits": "count",
	"replay.materialized": "count", "replay.recordat_ns_per_inst": "ns",
	"sample.prepare_ms": "ms", "sample.restore_ms": "ms", "sample.measure_ms": "ms",
	"pipeline.reset_ms": "ms", "pipeline.run_ms": "ms", "pipeline.ns_per_cycle": "ns",
	"pipeline.cycles": "count", "pipeline.cycles_elided": "count",
	"pipeline.fetched": "count", "pipeline.squashed": "count",
	"pipeline.fetch_ns_per_cycle": "ns", "pipeline.dispatch_ns_per_cycle": "ns",
	"pipeline.issue_ns_per_cycle": "ns", "pipeline.complete_ns_per_cycle": "ns",
	"pipeline.retire_ns_per_cycle": "ns", "pipeline.elide_ns_per_cycle": "ns",
	"sched.ns_per_cycle":        "ns",
	"core.sfc_search_per_kinst": "count", "core.mdt_search_per_kinst": "count",
	"core.lsq_search_per_kinst": "count", "core.replays_per_kinst": "count",
	"core.violations_per_kinst": "count", "core.preprobe_lookups": "count",
	"core.preprobe_hits": "count", "core.ns_per_cycle": "ns",
	"bpred.lookups": "count", "bpred.base_wrong_per_kinst": "count", "bpred.ns_per_lookup": "ns",
	"prefetch.issued": "count", "prefetch.useful": "count", "prefetch.ns_per_cycle": "ns",
	"mem.l1d_misses_per_kinst": "count", "mem.l2_misses_per_kinst": "count",
	"mem.ns_per_cycle": "ns", "mem.alloc_mb": "MB",
	"harness.self_ms": "ms", "host.cpu_util": "ratio", "host.steal_share": "ratio",
	"runtime.gc_cpu_s": "s", "runtime.gc_cycles": "count", "runtime.alloc_objects": "count",
	"service.rtt_ms_p50": "ms", "service.backend_ms_p50": "ms", "service.overhead_ms_p50": "ms",
	"service.cache_hits": "count", "service.executed": "count", "service.coalesced": "count",
	"service.response_kb": "KB",
	"trace.round_ms":      "ms",
}

// newResult returns a result with every per-layer metric at 0.
func newResult() *bench.Result {
	r := &bench.Result{Correct: true}
	for n, u := range Names {
		r.Set(n, u, 0)
	}
	return r
}

// set overwrites a per-layer metric, keeping its declared unit.
func set(r *bench.Result, name string, v float64) {
	u, ok := Names[name]
	if !ok {
		panic("layers: undeclared metric " + name)
	}
	r.Set(name, u, v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perK returns n per thousand retired instructions.
func perK(n, retired uint64) float64 {
	if retired == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(retired)
}

// setCounts fills the metrics read from simulated Stats, summed over one
// round of the timed part.
func setCounts(r *bench.Result, st *sim.Stats) {
	set(r, "pipeline.cycles", float64(st.Cycles))
	set(r, "pipeline.cycles_elided", float64(st.CyclesElided))
	set(r, "pipeline.fetched", float64(st.Fetched))
	set(r, "pipeline.squashed", float64(st.Squashed))
	set(r, "core.sfc_search_per_kinst", perK(st.SearchEntriesSFC, st.Retired))
	set(r, "core.mdt_search_per_kinst", perK(st.SearchEntriesMDT, st.Retired))
	set(r, "core.lsq_search_per_kinst", perK(st.SearchEntriesLSQ, st.Retired))
	set(r, "core.replays_per_kinst", perK(st.ReplaySFCConflict+st.ReplayMDTConflict+st.ReplayCorrupt+st.ReplayPartial, st.Retired))
	set(r, "core.violations_per_kinst", perK(st.TrueViolations+st.AntiViolations+st.OutputViolations, st.Retired))
	set(r, "core.preprobe_lookups", float64(st.PreprobeLookups))
	set(r, "core.preprobe_hits", float64(st.PreprobeHits))
	set(r, "bpred.lookups", float64(st.BPredLookups))
	set(r, "bpred.base_wrong_per_kinst", perK(st.BPredBaseWrong, st.Retired))
	set(r, "prefetch.issued", float64(st.PrefetchIssued))
	set(r, "prefetch.useful", float64(st.PrefetchUseful))
	set(r, "mem.l1d_misses_per_kinst", perK(st.L1DMisses, st.Retired))
	set(r, "mem.l2_misses_per_kinst", perK(st.L2Misses, st.Retired))
}

// setProfile fills the profile-grouped rows. stepped is the number of
// simulated cycles the pipeline stepped (not elided) over the profiled
// part, fetched its fetched instructions and lookups its branch-predictor
// lookups; alloc is the allocation profile of the part, rounds its length
// in rounds.
func setProfile(r *bench.Result, cpu Groups, alloc []Sample, stepped, fetched, lookups float64, rounds int) {
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	for _, st := range []string{"fetch", "dispatch", "issue", "complete", "retire", "elide"} {
		set(r, "pipeline."+st+"_ns_per_cycle", per(cpu.Stage[st], stepped))
	}
	for _, pkg := range []string{"sched", "core", "prefetch", "mem"} {
		set(r, pkg+".ns_per_cycle", per(cpu.Package[pkg], stepped))
	}
	set(r, "bpred.ns_per_lookup", per(cpu.Package["bpred"], lookups))
	set(r, "replay.recordat_ns_per_inst", per(cpu.RecordAt, fetched))
	set(r, "mem.alloc_mb", CumPrefix(alloc, internalPkg+"mem.")/float64(rounds)/1e6)
}

// hostClock samples the process's own CPU time, GC counters and wall clock
// at the two ends of the timed part.
type hostClock struct {
	wall    time.Time
	cpu     time.Duration
	samples []metrics.Sample
	steal   bench.Stopwatch
}

var runtimeMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles", "/gc/heap/allocs:objects"}

func readHostClock() hostClock {
	h := hostClock{wall: time.Now(), samples: make([]metrics.Sample, len(runtimeMetrics)), steal: bench.StartStopwatch()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for i, n := range runtimeMetrics {
		h.samples[i].Name = n
	}
	metrics.Read(h.samples)
	return h
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// setHost fills host.cpu_util, host.steal_share and the runtime rows (per
// round) from the clocks at the two ends of the timed part.
func setHost(r *bench.Result, a, b hostClock, rounds int) {
	set(r, "host.cpu_util", float64(b.cpu-a.cpu)/float64(b.wall.Sub(a.wall)))
	_, steal := a.steal.Elapsed()
	set(r, "host.steal_share", steal)
	n := float64(rounds)
	set(r, "runtime.gc_cpu_s", (value(b.samples[0])-value(a.samples[0]))/n)
	set(r, "runtime.gc_cycles", (value(b.samples[1])-value(a.samples[1]))/n)
	set(r, "runtime.alloc_objects", (value(b.samples[2])-value(a.samples[2]))/n)
}

// setPipeline fills the pipeline rows taken from the CPU profile: the time
// under (*Pipeline).reset and (*Pipeline).Run* per operation, and run time
// per stepped cycle.
func setPipeline(r *bench.Result, cpu []Sample, ops, stepped float64) {
	runNS := CumPrefix(cpu, pipelinePkg+"Run")
	set(r, "pipeline.reset_ms", CumPrefix(cpu, pipelinePkg+"reset")/ops/1e6)
	set(r, "pipeline.run_ms", runNS/ops/1e6)
	set(r, "pipeline.ns_per_cycle", runNS/stepped)
}
