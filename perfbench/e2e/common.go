// Package e2e runs the benchmark's workloads end to end through the
// simulator's public surfaces only: the sim package and the sfcserve binary
// with its HTTP API. It never imports an internal package, so a refactor
// behind those surfaces cannot break its build.
package e2e

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sfcmdt/perfbench/bench"
)

// Workers is the benchmark's parallelism: the two cores of the reference
// host. Every workload keeps at most this many simulations in flight.
const Workers = 2

// SetupReps is how many times each workload repeats its set-up; setup_s is
// the median. The in-process workloads drop the previous set-up's result and
// collect the heap before each one, so one set-up's garbage neither slows
// the next nor raises the peak resident memory above the timed part's.
const SetupReps = 5

// Timed accumulates the timed part of a run.
type Timed struct {
	mu     sync.Mutex
	LatMS  []float64 // per-operation latency
	Insts  uint64    // correct-path instructions simulated in detail
	Ops    int
	Rounds int

	// Per-round rates: a round's operations and instructions over its wall
	// time. Their medians are the throughput metrics, so a burst of host
	// noise shorter than half the run does not move them.
	opsRate, mips       []float64
	rssMB               []float64 // per-round peak resident set (RunRounds)
	roundOps, roundInst uint64
	roundLat            int // index of the round's first latency
}

// Op records one completed operation.
func (t *Timed) Op(d time.Duration, insts uint64) {
	t.mu.Lock()
	t.LatMS = append(t.LatMS, float64(d)/float64(time.Millisecond))
	t.Insts += insts
	t.Ops++
	t.mu.Unlock()
}

// EndRound closes a round that took wall (steal-adjusted, see
// bench.Stopwatch), attributing to it the operations recorded since the
// previous round ended, and scales their latencies by the round's
// unstolen share 1-steal.
func (t *Timed) EndRound(wall time.Duration, steal float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.roundLat; i < len(t.LatMS); i++ {
		t.LatMS[i] *= 1 - steal
	}
	sec := wall.Seconds()
	t.opsRate = append(t.opsRate, float64(uint64(t.Ops)-t.roundOps)/sec)
	t.mips = append(t.mips, float64(t.Insts-t.roundInst)/sec/1e6)
	t.roundOps, t.roundInst, t.roundLat = uint64(t.Ops), t.Insts, len(t.LatMS)
	t.Rounds++
}

// EndToEnd fills every end-to-end metric. allocMB is the Go heap allocated
// per round of the timed part; peakRSSMB the simulating process's peak
// resident memory.
func (t *Timed) EndToEnd(res *bench.Result, setups []time.Duration, allocMB, peakRSSMB, paperErr float64) error {
	if t.Ops == 0 {
		return fmt.Errorf("no operation completed in the timed part")
	}
	p50, err := bench.Percentile(t.LatMS, 50)
	if err != nil {
		return err
	}
	p90, err := bench.Percentile(t.LatMS, 90)
	if err != nil {
		return err
	}
	ss := make([]float64, len(setups))
	for i, d := range setups {
		ss[i] = d.Seconds()
	}
	res.Set("setup_s", "s", bench.Median(ss))
	res.Set("sim_mips", "Minst/s", bench.Median(t.mips))
	res.Set("ops_per_s", "1/s", bench.Median(t.opsRate))
	res.Set("op_ms_p50", "ms", p50)
	res.Set("op_ms_p90", "ms", p90)
	res.Set("peak_rss_mb", "MB", peakRSSMB)
	res.Set("alloc_mb", "MB", allocMB)
	res.Set("paper_err_pp", "pp", paperErr)
	return nil
}

// PeakRSSMB returns the median over the rounds RunRounds ran of each
// round's peak resident set. The peak of a whole run is the largest of many
// GC cycles' peaks and moves with the collector's timing from run to run;
// the median round peak moves with the memory the program keeps.
func (t *Timed) PeakRSSMB() float64 { return bench.Median(t.rssMB) }

// RunRounds calls round until the timed part has lasted seconds, always
// finishing the round it started, so every run attempts whole rounds of the
// same operations. It returns the Go heap bytes allocated per round, and
// records each round's peak resident set in t.
func RunRounds(ctx context.Context, t *Timed, seconds float64, round func(ctx context.Context) error) (allocMB float64, err error) {
	rss := startRSSPeak()
	defer rss.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for t.Rounds == 0 || time.Since(start).Seconds() < seconds {
		rss.take()
		sw := bench.StartStopwatch()
		if err := round(ctx); err != nil {
			return 0, err
		}
		t.EndRound(sw.Elapsed())
		t.rssMB = append(t.rssMB, rss.take())
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(t.Rounds) / 1e6, nil
}

// ParallelFor calls f(i) for i in [0, n) from Workers goroutines and
// returns the first error.
func ParallelFor(ctx context.Context, n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for w := 0; w < Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := f(i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// rssPeak samples this process's resident set every rssEvery and keeps the
// largest value since the last take.
type rssPeak struct {
	mu         sync.Mutex
	peak       float64
	stop, done chan struct{}
}

const rssEvery = 10 * time.Millisecond

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *rssPeak) sample() {
	v := residentMB()
	p.mu.Lock()
	p.peak = max(p.peak, v)
	p.mu.Unlock()
}

// take returns the peak since the previous take and starts a new one.
func (p *rssPeak) take() float64 {
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.peak
	p.peak = 0
	return v
}

func (p *rssPeak) close() {
	close(p.stop)
	<-p.done
}

// residentMB returns this process's resident set from /proc/self/statm or,
// where that cannot be read, its peak resident set from getrusage.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ClassKey names a class-average cell of a figure: a column and a class.
func ClassKey(column, class string) string { return column + "/" + class }
