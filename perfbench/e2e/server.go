package e2e

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one server the benchmark started: an sfcserve process, or a
// service the benchmark hosts in its own process.
type Server struct {
	URL string
	// Halt, when set, stops a hosted service; the process fields below
	// then stay zero.
	Halt    func() error
	cmd     *exec.Cmd
	started time.Time
	logDone chan struct{}

	// Filled by Stop. GC is written by the stderr reader until the log
	// ends.
	GC      GCTrace
	Life    time.Duration
	CPU     time.Duration // user+system CPU of the whole process
	PeakRSS float64       // MB
}

// GCTrace totals the runtime's gctrace lines of a server process.
type GCTrace struct {
	Cycles  int
	CPUms   float64 // GC CPU time as gctrace reports it (assist+background+termination)
	AllocMB float64 // heap allocated, summed per cycle as (heap at GC end) - (live heap after the previous GC)
	// Last is when the last cycle's line arrived: AllocMB covers the
	// allocation up to then, and none after it.
	Last time.Time
	live float64
}

var gcLine = regexp.MustCompile(`^gc \d+ @\S+ \d+%: \S+ ms clock, (\S+) ms cpu, (\d+)->(\d+)->(\d+) MB`)

func (g *GCTrace) parse(line string) bool {
	m := gcLine.FindStringSubmatch(line)
	if m == nil {
		return false
	}
	for _, f := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '+' || r == '/' }) {
		v, _ := strconv.ParseFloat(f, 64)
		g.CPUms += v
	}
	end, _ := strconv.ParseFloat(m[3], 64)
	live, _ := strconv.ParseFloat(m[4], 64)
	g.AllocMB += end - g.live
	g.live = live
	g.Cycles++
	g.Last = time.Now()
	return true
}

// StartServer starts sfcserve on a loopback port over the stream store in
// replayDir and waits until it reports ready. The runtime's GC trace is
// switched on so the server's allocation can be measured from outside.
func StartServer(ctx context.Context, bin, work, replayDir string, args ...string) (*Server, error) {
	addrFile := filepath.Join(work, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(Workers), "-replay-dir", replayDir}, args...)
	cmd := exec.Command(filepath.Join(bin, "sfcserve"), args...)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &Server{cmd: cmd, logDone: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sfcserve: %w", err)
	}
	go s.readLog(stderr)
	deadline := time.Now().Add(20 * time.Second)
	for {
		// sfcserve renames the file into place, so it is complete once
		// it exists.
		if b, err := os.ReadFile(addrFile); err == nil {
			s.URL = "http://" + strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.Stop()
			return nil, fmt.Errorf("sfcserve did not write its address")
		}
		time.Sleep(2 * time.Millisecond)
	}
	os.Remove(addrFile)
	for {
		resp, err := httpClient.Get(s.URL + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.Stop()
			return nil, fmt.Errorf("sfcserve not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// routineLog matches the lines sfcserve logs on every start and stop.
var routineLog = regexp.MustCompile(`store at |listening on |signal received|drained: |replay streams: `)

// readLog consumes the server's standard error: GC trace lines are
// totalled, anything else is passed through.
func (s *Server) readLog(r io.Reader) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if s.GC.parse(line) || routineLog.MatchString(line) {
			continue
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// Stop drains the server: a process with SIGTERM, waiting for it to exit
// and recording its resource use and GC trace, a hosted service by Halt.
func (s *Server) Stop() error {
	if s.Halt != nil {
		return s.Halt()
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	<-s.logDone
	err := s.cmd.Wait()
	s.Life = time.Since(s.started)
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.PeakRSS = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return fmt.Errorf("sfcserve exit: %w", err)
	}
	return nil
}
