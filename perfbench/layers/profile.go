package layers

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// MemProfileRate is the allocation-profile sampling interval of the traced
// run, finer than the runtime's 512 KiB default so per-round allocation by
// package is resolved.
const MemProfileRate = 64 << 10

// Profiler takes a CPU profile and an allocation profile of the timed part.
type Profiler struct {
	dir string
	cpu *os.File
}

// StartProfiles starts the CPU profile and snapshots the allocation profile
// (the base the end snapshot is diffed against).
func StartProfiles(dir string) (*Profiler, error) {
	p := &Profiler{dir: dir}
	if err := writeHeap(filepath.Join(dir, "heap0.pprof")); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

// Stop ends both profiles.
func (p *Profiler) Stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	return writeHeap(filepath.Join(p.dir, "heap1.pprof"))
}

func writeHeap(path string) error {
	runtime.GC() // the allocation profile is current as of the last GC
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sample is one profile sample: its value and its stack, leaf first.
type Sample struct {
	Value float64 // nanoseconds (CPU) or bytes (allocation)
	Stack []string
}

// CPUSamples reads the CPU profile back with `go tool pprof -traces`.
func (p *Profiler) CPUSamples() ([]Sample, error) {
	return pprofTraces("-traces", filepath.Join(p.dir, "cpu.pprof"))
}

// AllocSamples reads the bytes allocated during the timed part back with
// `go tool pprof -traces`, diffed against the start snapshot.
func (p *Profiler) AllocSamples() ([]Sample, error) {
	return pprofTraces("-traces", "-sample_index=alloc_space",
		"-base", filepath.Join(p.dir, "heap0.pprof"), filepath.Join(p.dir, "heap1.pprof"))
}

var valueRE = regexp.MustCompile(`^\s*(-?[0-9.]+)([a-zA-Z]*)\s+(\S.*)$`)

// pprofTraces runs `go tool pprof` offline and parses its -traces report:
// samples separated by dashed lines, the first line of each holding the
// value and the leaf function, the following lines the callers.
func pprofTraces(args ...string) ([]Sample, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(gobin, append([]string{"tool", "pprof"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %v: %w: %s", args, err, stderr.String())
	}
	var samples []Sample
	var cur *Sample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----"):
			cur = nil
		case cur == nil:
			m := valueRE.FindStringSubmatch(line)
			if m == nil {
				continue // report header
			}
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, err
			}
			scale, ok := units[m[2]]
			if !ok {
				return nil, fmt.Errorf("pprof value unit %q in %q", m[2], line)
			}
			samples = append(samples, Sample{Value: v * scale, Stack: []string{funcName(m[3])}})
			cur = &samples[len(samples)-1]
		default:
			if f := funcName(line); f != "" {
				cur.Stack = append(cur.Stack, f)
			}
		}
	}
	return samples, sc.Err()
}

var units = map[string]float64{
	"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "": 1,
}

func funcName(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, " "); i >= 0 {
		s = s[:i] // drop "(inline)" and similar annotations
	}
	return s
}

// Grouping rules: a CPU sample belongs to the pipeline stage of its
// innermost stage function, to the package of its innermost function in an
// internal package of the simulator, and to RecordAt when RecordAt is
// anywhere on its stack.
const (
	pipelinePkg = "sfcmdt/internal/pipeline.(*Pipeline)."
	samplePkg   = "sfcmdt/internal/sample."
	harnessRun  = "sfcmdt/internal/harness.(*Runner).RunContext"
	internalPkg = "sfcmdt/internal/"
	recordAt    = "sfcmdt/internal/replay.(*View).RecordAt"
)

var stageOf = map[string]string{
	"fetch": "fetch", "dispatch": "dispatch", "issue": "issue",
	"complete": "complete", "retire": "retire", "tryElide": "elide",
}

// Groups is a profile reduced to the benchmark's rows.
type Groups struct {
	Total    float64
	Stage    map[string]float64 // fetch, dispatch, issue, complete, retire, elide
	Package  map[string]float64 // sched, core, bpred, prefetch, mem, replay, ...
	RecordAt float64
}

// Group applies the grouping rules.
func Group(samples []Sample) Groups {
	g := Groups{Stage: map[string]float64{}, Package: map[string]float64{}}
	for _, s := range samples {
		g.Total += s.Value
		stage, pkg, rec := "", "", false
		for _, f := range s.Stack {
			if stage == "" && strings.HasPrefix(f, pipelinePkg) {
				stage = stageOf[strings.TrimPrefix(f, pipelinePkg)]
			}
			if pkg == "" && strings.HasPrefix(f, internalPkg) {
				rest := strings.TrimPrefix(f, internalPkg)
				pkg = rest[:strings.IndexAny(rest+".", "./")]
			}
			rec = rec || f == recordAt
		}
		if stage != "" {
			g.Stage[stage] += s.Value
		}
		if pkg != "" {
			g.Package[pkg] += s.Value
		}
		if rec {
			g.RecordAt += s.Value
		}
	}
	return g
}

// CumPrefix sums the cumulative value of every function named with prefix,
// counting each sample once: use it for one function or one method set.
func CumPrefix(samples []Sample, prefix string) float64 {
	var v float64
	for _, s := range samples {
		for _, f := range s.Stack {
			if strings.HasPrefix(f, prefix) {
				v += s.Value
				break
			}
		}
	}
	return v
}

// CumOutside sums the value of every sample with a function named with
// prefix on its stack and no function named with any of the excluded
// prefixes: a function's own cost apart from the named callees.
func CumOutside(samples []Sample, prefix string, excluded ...string) float64 {
	var v float64
	for _, s := range samples {
		in, out := false, false
		for _, f := range s.Stack {
			in = in || strings.HasPrefix(f, prefix)
			for _, x := range excluded {
				out = out || strings.HasPrefix(f, x)
			}
		}
		if in && !out {
			v += s.Value
		}
	}
	return v
}
