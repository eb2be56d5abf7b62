// Package bench holds what the benchmark's end-to-end and traced runs share:
// the command line, the result record, the repeat mode, and the arithmetic
// (percentiles, quartiles, span self time, paper error). It imports nothing
// of the simulator.
package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
)

// Options are one run's command-line settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	// Work is a private scratch directory under the checkout's build
	// directory, removed when the run ends.
	Work string
	// Bin is the directory holding the binaries the wrapper script built
	// (sfcserve).
	Bin string
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the record a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records metric name.
func (r *Result) Set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Workload runs one named workload.
type Workload func(ctx context.Context, opt Options) (*Result, error)

// Main parses the command line, runs the named workload (or, with -repeat,
// runs it that many times in fresh processes and summarises), prints the
// result as the last line of standard output and exits.
func Main(workloads map[string]Workload) {
	fs := flag.NewFlagSet(filepath.Base(os.Args[0]), flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed part")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	repeat := fs.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... in fresh processes and print each metric's median, quartiles, minimum and maximum")
	fs.Parse(os.Args[1:])
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "repeat:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := Options{
		Workload: *name, Seed: *seed, Seconds: *seconds,
		Work: filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid())),
		Bin:  filepath.Join(root, ".bench_build", "bin"),
	}
	if err := os.MkdirAll(opt.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := run(ctx, opt)
	os.RemoveAll(opt.Work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// Summary is one metric's distribution over repeated runs.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is (Q3-Q1)/Median, the share the benchmark's bounds are set
	// against.
	Spread float64 `json:"spread"`
}

// Summarise reduces repeated results to one Summary per metric.
func Summarise(runs []*Result) (map[string]Summary, error) {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]Summary{}
	for k, xs := range vals {
		if len(xs) != len(runs) {
			return nil, fmt.Errorf("metric %s reported by %d of %d runs", k, len(xs), len(runs))
		}
		q1, q3, err := Quartiles(xs)
		if err != nil {
			return nil, err
		}
		med := Median(xs)
		s := Summary{Unit: units[k], Median: med, Q1: q1, Q3: q3, Min: slices.Min(xs), Max: slices.Max(xs)}
		if med != 0 {
			s.Spread = (q3 - q1) / math.Abs(med)
		}
		out[k] = s
	}
	return out, nil
}

func repeatRuns(name string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []*Result
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var r Result
		if err := json.Unmarshal(lastLine(out), &r); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !r.Correct {
			return fmt.Errorf("seed %d: outputs failed their checks", s)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d: %s\n", i+1, n, s, lastLine(out))
		runs = append(runs, &r)
	}
	sum, err := Summarise(runs)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(sum))
	for k := range sum {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, %gs each; failed/attempted %d/%d in run 1\n",
		name, n, seed, seed+int64(n)-1, seconds, runs[0].Failed, runs[0].Attempted)
	fmt.Printf("%-34s %-8s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, k := range names {
		s := sum[k]
		fmt.Printf("%-34s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", k, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.Spread)
	}
	for i, r := range runs {
		if r.Attempted == 0 || r.Failed*runs[0].Attempted != runs[0].Failed*r.Attempted {
			return fmt.Errorf("run %d: failed share %d/%d differs from run 1's %d/%d", i+1, r.Failed, r.Attempted, runs[0].Failed, runs[0].Attempted)
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
