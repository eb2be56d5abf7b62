package bench

import (
	"math"
	"testing"
	"time"
)

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 1}, {90, 100}, {99, 1000}, {75, 40}} {
		if got := MinSamples(c.p); got != c.want {
			t.Errorf("MinSamples(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: order must not matter
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}, {100, 100}} {
		got, err := Percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("Percentile(1..100, %g) = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples: want an error, fewer than ten samples lie beyond it")
	}
	if got, err := Percentile([]float64{7}, 50); err != nil || got != 7 {
		t.Errorf("median of one sample = %g, %v", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 3.1},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3, err := Quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestPaperErrPP(t *testing.T) {
	paper := map[string]float64{"enf/int": 0.99, "enf/fp": 0.99, "not-enf/int": 0.97, "not-enf/fp": 0.97}
	measured := map[string]float64{"enf/int": 0.98, "enf/fp": 1.00, "not-enf/int": 0.95, "not-enf/fp": 0.97}
	// |−1| + |+1| + |−2| + 0 percentage points over four cells.
	got, err := PaperErrPP(measured, paper)
	if err != nil || math.Abs(got-1.0) > 1e-9 {
		t.Errorf("PaperErrPP = %g, %v; want 1", got, err)
	}
	delete(measured, "enf/fp")
	if _, err := PaperErrPP(measured, paper); err == nil {
		t.Error("missing cell: want an error")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{0.5, 2, 4}); math.Abs(got-math.Cbrt(4)) > 1e-12 {
		t.Errorf("Geomean = %g", got)
	}
}

func TestSelfTimesNested(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)}, // overlaps a
		{Name: "a1", Parent: 1, Start: ms(15), End: ms(20)},
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // runs past root
	}
	// root: 100 - |[10,60] ∪ [90,100]| = 100 - 60; a: 30 - 5.
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30)}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	total, self, count := Totals(append(spans, Span{Name: "a", Parent: -1, Start: ms(200), End: ms(210)}), 1)
	if total["a"] != ms(40) || self["a"] != ms(35) || count["a"] != 2 || count["root"] != 0 {
		t.Errorf("Totals from 1: total %v self %v count %v", total["a"], self["a"], count)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", -1)
	kid := tr.Start("kid", root)
	tr.End(kid)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != 0 || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("spans %+v", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if i := tr.Start("x", -1); i != -1 {
		t.Errorf("Start on a nil tracer = %d, want -1", i)
	}
	tr.End(-1)
}

func TestStealShare(t *testing.T) {
	if got := StealShare(100, 1000, 150, 1200); got != 0.25 {
		t.Errorf("StealShare = %g, want 0.25", got)
	}
	if got := StealShare(100, 1000, 100, 1000); got != 0 {
		t.Errorf("no ticks: StealShare = %g, want 0", got)
	}
	if d, s := StartStopwatch().Elapsed(); d < 0 || s < 0 || s > 1 {
		t.Errorf("Elapsed = %v, %g", d, s)
	}
}
