package bench

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Stopwatch measures host time with the time the hypervisor stole from the
// VM taken out. On a shared host a vCPU is sometimes descheduled for
// seconds at a time; the kernel counts that as steal in /proc/stat. While
// the benchmark keeps both vCPUs busy, a share s of stolen ticks stretches
// its wall time by 1/(1-s), so elapsed time is scaled by (1-s). Where
// /proc/stat cannot be read the share is 0 and the time is plain wall time.
type Stopwatch struct {
	start        time.Time
	steal, total uint64
}

// StartStopwatch starts a stopwatch now.
func StartStopwatch() Stopwatch {
	steal, total := readSteal()
	return Stopwatch{start: time.Now(), steal: steal, total: total}
}

// Elapsed returns the steal-adjusted time since the start and the stolen
// share of the VM's CPU ticks over it.
func (s Stopwatch) Elapsed() (time.Duration, float64) {
	wall := time.Since(s.start)
	steal, total := readSteal()
	share := StealShare(s.steal, s.total, steal, total)
	return time.Duration(float64(wall) * (1 - share)), share
}

// StealShare returns the stolen share of the ticks between two /proc/stat
// readings, 0 when there are none.
func StealShare(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 || steal1 < steal0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// readSteal returns the steal and total ticks of all CPUs from the first
// line of /proc/stat ("cpu user nice system idle iowait irq softirq steal
// ..."), or zeros.
func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
