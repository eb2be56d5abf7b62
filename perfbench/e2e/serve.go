package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"sfcmdt/perfbench/bench"
	"sfcmdt/sim"
)

// The serve workload's request space. ServeBudgets end at the server's
// -max-insts cap; the Figure 5 grid is sent at ServeGridBudget.
var (
	ServeBudgets    = []uint64{5_000, 10_000, 20_000, 40_000}
	ServeGridBudget = uint64(20_000)
)

// serveRepeats is how many exact repeats of earlier requests a round
// holds: 20% of its 305 requests.
const serveRepeats = 61

// Request is a /v1/run request body (the public HTTP API's field names).
type Request struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Mem      string `json:"mem"`
	Pred     string `json:"pred"`
	BPred    string `json:"bpred,omitempty"`
	Prefetch string `json:"prefetch,omitempty"`
	Preprobe bool   `json:"preprobe,omitempty"`
	Insts    uint64 `json:"insts"`
}

// Key identifies the run a request names.
func (r Request) Key() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// Response is the part of a /v1/run response the benchmark reads.
type Response struct {
	Retired   uint64     `json:"retired"`
	Stats     *sim.Stats `json:"stats"`
	Cached    bool       `json:"cached"`
	Coalesced bool       `json:"coalesced"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// Executed reports whether the response paid for a backend run.
func (r *Response) Executed() bool { return !r.Cached && !r.Coalesced }

// ServerStats is the part of GET /v1/stats the benchmark checks.
type ServerStats struct {
	Requests           uint64 `json:"requests"`
	CacheHits          uint64 `json:"cache_hits"`
	Coalesced          uint64 `json:"coalesced"`
	Executed           uint64 `json:"executed"`
	Rejected           uint64 `json:"rejected"`
	Failed             uint64 `json:"failed"`
	ReplayStoreHits    uint64 `json:"replay_store_hits"`
	ReplayMaterialized uint64 `json:"replay_materialized"`
}

// serveCombos are the (config, memory subsystem, predictor) axes; the
// first three are Figure 5's columns.
var serveCombos = [][3]string{
	{"baseline", "lsq", "not-enf"},
	{"baseline", "mdtsfc", "enf"},
	{"baseline", "mdtsfc", "not-enf"},
	{"aggressive", "lsq", "not-enf"},
	{"aggressive", "mdtsfc", "total"},
}

// slotCombos is the multiset of serveCombos indices each workload's eight
// further requests take: half baseline, half aggressive.
var slotCombos = []int{0, 1, 2, 0, 3, 4, 3, 4}

// ServeSequence returns the seeded request sequence of one round. It holds
// the whole Figure 5 grid at ServeGridBudget with the default frontend;
// for each of the 20 figure workloads and the 3 Extras, one further request
// per (budget, frontend) pair, their (config, memory, predictor) drawn as a
// seeded permutation of slotCombos; and serveRepeats exact repeats of
// earlier requests, each placed after its original. The strata keep the
// work of a round nearly the same for every seed. The grid comes back as
// indices into the sequence, in Figure5Points order.
func ServeSequence(seed int64) (seq []Request, grid []int) {
	rng := rand.New(rand.NewSource(seed))
	var ws []string
	for _, w := range sim.Workloads() {
		ws = append(ws, w.Name)
	}
	var uniq []Request
	for _, w := range ws {
		for _, c := range serveCombos[:3] {
			uniq = append(uniq, Request{Workload: w, Config: c[0], Mem: c[1], Pred: c[2], Insts: ServeGridBudget})
		}
	}
	nGrid := len(uniq)
	for _, w := range append(slices.Clone(ws), SampledExtras...) {
		combos := slices.Clone(slotCombos)
		rng.Shuffle(len(combos), func(a, b int) { combos[a], combos[b] = combos[b], combos[a] })
		slot := 0
		for _, b := range ServeBudgets {
			for _, full := range []bool{false, true} {
				c := combos[slot]
				if !full && b == ServeGridBudget && c < 3 {
					// That request is a grid point already: swap in an
					// aggressive combination from a later slot.
					j := slices.IndexFunc(combos[slot+1:], func(c int) bool { return c >= 3 }) + slot + 1
					combos[slot], combos[j] = combos[j], combos[slot]
					c = combos[slot]
				}
				r := Request{Workload: w, Config: serveCombos[c][0], Mem: serveCombos[c][1], Pred: serveCombos[c][2], Insts: b}
				if full {
					r.BPred, r.Prefetch, r.Preprobe = FullFrontend.BPred, FullFrontend.Prefetch, FullFrontend.Preprobe
				}
				uniq = append(uniq, r)
				slot++
			}
		}
	}
	seq = slices.Clone(uniq)
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	for i := 0; i < serveRepeats; i++ {
		from := rng.Intn(len(seq))
		at := from + 1 + rng.Intn(len(seq)-from)
		seq = slices.Insert(seq, at, seq[from])
	}
	pos := map[string]int{}
	for i := len(seq) - 1; i >= 0; i-- {
		pos[seq[i].Key()] = i // first occurrence
	}
	for _, r := range uniq[:nGrid] {
		grid = append(grid, pos[r.Key()])
	}
	return seq, grid
}

// SimConfig returns the processor configuration a request names, built with
// the sim package alone — the independent side of the served-stats check.
func (r Request) SimConfig() (sim.Config, error) {
	var v sim.Variant
	switch r.Mem + "/" + r.Pred {
	case "lsq/not-enf":
		v = sim.LSQ48x32
		if r.Config == "aggressive" {
			v = sim.LSQ120x80
		}
	case "mdtsfc/enf":
		v = sim.MDTSFCEnf
	case "mdtsfc/not-enf":
		v = sim.MDTSFCNot
	case "mdtsfc/total":
		v = sim.MDTSFCTotal
	default:
		return sim.Config{}, fmt.Errorf("no variant for %s/%s", r.Mem, r.Pred)
	}
	cfg := sim.Baseline(v, r.Insts)
	if r.Config == "aggressive" {
		cfg = sim.Aggressive(v, r.Insts)
	}
	f := sim.Frontend{BPred: r.BPred, Prefetch: r.Prefetch, Preprobe: r.Preprobe}
	return cfg, f.Apply(&cfg)
}

var httpClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: Workers},
}

// Call is one timed request of a round.
type Call struct {
	Start time.Duration // from the start of the round
	RTT   time.Duration
	Bytes int
	Resp  *Response
	Err   error
}

// ServeRound is one round: a fresh server over the filled store, the whole
// sequence sent by Workers closed-loop clients, and the server's counters
// after it.
type ServeRound struct {
	Began  time.Time
	Calls  []Call
	Wall   time.Duration // plain wall time
	Steal  float64       // stolen share of the VM's ticks over the round
	Stats  ServerStats
	Server *Server // stopped
}

// AllocMB estimates the server's heap allocation over the round. The GC
// trace accounts for allocation only up to the last collection, so the
// estimate is that allocation per request completed by then, times the
// round's requests.
func (rd *ServeRound) AllocMB() float64 {
	n := 0
	for _, c := range rd.Calls {
		if rd.Began.Add(c.Start + c.RTT).Before(rd.Server.GC.Last) {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return rd.Server.GC.AllocMB / float64(n) * float64(len(rd.Calls))
}

// ServeRun is everything a serve run measured.
type ServeRun struct {
	Seq    []Request
	Grid   []int
	Setups []time.Duration
	Rounds []*ServeRound
}

// RunServe performs the serve workload. Set-up fills a -replay-dir stream
// store with every (workload, budget) the sequence names, through a first
// server, then starts a fresh server on the store: a warm restart. Each
// round then sends the sequence to a fresh warm-restarted server (the
// restart between rounds is not timed), so every round sees the same cache
// and store behaviour.
//
// hooks let the traced run host the service itself and start its profile
// where the timed part begins; the zero value runs sfcserve processes.
func RunServe(ctx context.Context, opt bench.Options, hooks ServeHooks) (*ServeRun, error) {
	seq, grid := ServeSequence(opt.Seed)
	run := &ServeRun{Seq: seq, Grid: grid}
	var (
		srv   *Server
		store string
	)
	defer func() {
		if srv != nil {
			srv.Stop()
		}
	}()
	for i := 0; i < SetupReps; i++ {
		if srv != nil {
			srv.Stop()
			srv = nil
			os.RemoveAll(store)
		}
		store = filepath.Join(opt.Work, "streams-"+strconv.Itoa(i))
		sw := bench.StartStopwatch()
		if err := fillStore(ctx, opt, hooks, store, seq); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var err error
		if srv, err = startServe(ctx, opt, hooks, store); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, _ := sw.Elapsed()
		run.Setups = append(run.Setups, d)
	}
	if hooks.Timed != nil {
		if err := hooks.Timed(); err != nil {
			return nil, err
		}
	}
	var timed time.Duration
	for len(run.Rounds) == 0 || timed.Seconds() < opt.Seconds {
		if srv == nil {
			var err error
			if srv, err = startServe(ctx, opt, hooks, store); err != nil {
				return nil, err
			}
		}
		rd, err := serveRound(ctx, srv, seq)
		if err != nil {
			return nil, err
		}
		rd.Server, srv = srv, nil
		if err := rd.Server.Stop(); err != nil {
			return nil, err
		}
		run.Rounds = append(run.Rounds, rd)
		timed += rd.Wall
	}
	return run, nil
}

// ServeHooks change how a serve run starts its servers and mark where its
// timed part begins.
type ServeHooks struct {
	// Host, when set, starts a server over the stream store in dir in
	// place of an sfcserve process.
	Host func(ctx context.Context, dir string) (*Server, error)
	// Timed, when set, is called once, just before the first timed round.
	Timed func() error
}

func startServe(ctx context.Context, opt bench.Options, hooks ServeHooks, store string) (*Server, error) {
	if hooks.Host != nil {
		return hooks.Host(ctx, store)
	}
	return StartServer(ctx, opt.Bin, opt.Work, store,
		"-max-insts", strconv.FormatUint(slices.Max(ServeBudgets), 10))
}

// fillStore materialises and persists one stream per (workload, budget) of
// the sequence through a server of its own. Budgets go in ascending order
// with every run of one budget finished before the next starts, so each
// (workload, budget) key is materialised at exactly its span.
func fillStore(ctx context.Context, opt bench.Options, hooks ServeHooks, store string, seq []Request) error {
	srv, err := startServe(ctx, opt, hooks, store)
	if err != nil {
		return err
	}
	for _, b := range ServeBudgets {
		var reqs []Request
		seen := map[string]bool{}
		for _, r := range seq {
			if r.Insts == b && !seen[r.Workload] {
				seen[r.Workload] = true
				reqs = append(reqs, Request{Workload: r.Workload, Config: "baseline", Mem: "mdtsfc", Pred: "enf", Insts: b})
			}
		}
		err = ParallelFor(ctx, len(reqs), func(i int) error {
			_, _, err := post(srv.URL, reqs[i])
			return err
		})
		if err != nil {
			break
		}
	}
	if serr := srv.Stop(); err == nil {
		err = serr
	}
	return err
}

// serveRound sends the sequence from Workers closed-loop clients: each
// sends the next request of the sequence as soon as its previous one
// returns.
func serveRound(ctx context.Context, srv *Server, seq []Request) (*ServeRound, error) {
	sw := bench.StartStopwatch()
	t0 := time.Now()
	rd := &ServeRound{Began: t0, Calls: make([]Call, len(seq))}
	err := ParallelFor(ctx, len(seq), func(i int) error {
		s := time.Now()
		resp, n, err := post(srv.URL, seq[i])
		rd.Calls[i] = Call{Start: s.Sub(t0), RTT: time.Since(s), Bytes: n, Resp: resp, Err: err}
		return nil
	})
	rd.Wall = time.Since(t0)
	_, rd.Steal = sw.Elapsed()
	if err != nil {
		return nil, err
	}
	if err := getJSON(srv.URL+"/v1/stats", &rd.Stats); err != nil {
		return nil, err
	}
	return rd, nil
}

func post(url string, r Request) (*Response, int, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, 0, err
	}
	resp, err := httpClient.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(b), fmt.Errorf("%s: HTTP %d: %s", r.Key(), resp.StatusCode, bytes.TrimSpace(b))
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, len(b), fmt.Errorf("%s: %w", r.Key(), err)
	}
	if out.Stats == nil {
		return nil, len(b), fmt.Errorf("%s: response without stats", r.Key())
	}
	return &out, len(b), nil
}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Check verifies a serve run's outputs: every request answered with its
// budget retired; within a round every response for a key equal to the
// fresh one; every round equal to the first; the server's counters
// consistent (requests = cache hits + coalesced + executed, one execution
// per distinct key, no failures, no stream materialised after the warm
// restart); and a seeded subset of served stats equal to sim.Run of the
// same configuration. It returns the number of failed requests.
func (run *ServeRun) Check(seed int64) (failed int, err error) {
	first := map[string]*sim.Stats{}
	distinct := map[string]bool{}
	for _, r := range run.Seq {
		distinct[r.Key()] = true
	}
	for ri, rd := range run.Rounds {
		for i, c := range rd.Calls {
			req := run.Seq[i]
			if c.Err != nil {
				failed++
				continue
			}
			if c.Resp.Retired != req.Insts {
				return failed, fmt.Errorf("round %d: %s retired %d", ri, req.Key(), c.Resp.Retired)
			}
			if ref, ok := first[req.Key()]; !ok {
				first[req.Key()] = c.Resp.Stats
			} else if *ref != *c.Resp.Stats {
				return failed, fmt.Errorf("round %d: %s (cached=%v coalesced=%v) differs from its first response",
					ri, req.Key(), c.Resp.Cached, c.Resp.Coalesced)
			}
		}
		st := rd.Stats
		switch {
		case st.Requests != st.CacheHits+st.Coalesced+st.Executed:
			return failed, fmt.Errorf("round %d: /v1/stats requests %d != cache_hits %d + coalesced %d + executed %d",
				ri, st.Requests, st.CacheHits, st.Coalesced, st.Executed)
		case st.Failed != 0 || st.Rejected != 0:
			return failed, fmt.Errorf("round %d: /v1/stats failed %d rejected %d", ri, st.Failed, st.Rejected)
		case st.ReplayMaterialized != 0:
			return failed, fmt.Errorf("round %d: %d streams materialised after the warm restart", ri, st.ReplayMaterialized)
		case failed == 0 && (st.Requests != uint64(len(run.Seq)) || st.Executed != uint64(len(distinct))):
			return failed, fmt.Errorf("round %d: /v1/stats saw %d requests and %d executions for %d requests over %d keys",
				ri, st.Requests, st.Executed, len(run.Seq), len(distinct))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(run.Seq))[:6] {
		req := run.Seq[i]
		got, ok := first[req.Key()]
		if !ok {
			continue
		}
		w, ok := sim.Workload(req.Workload)
		if !ok {
			return failed, fmt.Errorf("unknown workload %q", req.Workload)
		}
		cfg, err := req.SimConfig()
		if err != nil {
			return failed, err
		}
		want, err := sim.Run(cfg, w.Build())
		if err != nil {
			return failed, fmt.Errorf("check %s: %w", req.Key(), err)
		}
		if *want != *got {
			return failed, fmt.Errorf("check %s: served stats differ from sim.Run", req.Key())
		}
	}
	return failed, nil
}

// GridClassAverages returns the Figure 5 class averages of the grid's
// responses.
func (run *ServeRun) GridClassAverages() map[string]float64 {
	stats := make([]*sim.Stats, len(run.Grid))
	for i, at := range run.Grid {
		if c := run.Rounds[0].Calls[at]; c.Err == nil {
			stats[i] = c.Resp.Stats
		}
	}
	var ps []Point
	for _, w := range sim.Workloads() {
		for c := range Figure5Variants {
			ps = append(ps, Point{W: w, Col: c})
		}
	}
	return Figure5ClassAverages(ps, stats)
}

// Serve runs the serve workload and reports its end-to-end metrics. One
// operation is one HTTP request; its latency is the client's round trip.
func Serve(ctx context.Context, opt bench.Options) (*bench.Result, error) {
	run, err := RunServe(ctx, opt, ServeHooks{})
	if err != nil {
		return nil, err
	}
	res := &bench.Result{Correct: true}
	for _, rd := range run.Rounds {
		res.Attempted += len(rd.Calls)
	}
	res.Failed, err = run.Check(opt.Seed)
	if err != nil {
		return Fail(res, err), nil
	}
	var t Timed
	var allocs, rss []float64
	for _, rd := range run.Rounds {
		for _, c := range rd.Calls {
			if c.Err != nil {
				continue
			}
			var insts uint64
			if c.Resp.Executed() {
				insts = c.Resp.Retired
			}
			t.Op(c.RTT, insts)
		}
		t.EndRound(time.Duration(float64(rd.Wall)*(1-rd.Steal)), rd.Steal)
		allocs = append(allocs, rd.AllocMB())
		rss = append(rss, rd.Server.PeakRSS)
	}
	errPP, err := bench.PaperErrPP(run.GridClassAverages(), Figure5Paper)
	if err != nil {
		return nil, err
	}
	if err := t.EndToEnd(res, run.Setups, bench.Median(allocs), bench.Median(rss), errPP); err != nil {
		return nil, err
	}
	return res, nil
}
