package layers

import "testing"

func TestGroupRules(t *testing.T) {
	const p = "sfcmdt/internal/pipeline.(*Pipeline)."
	samples := []Sample{
		// Leaf in core under issue: stage issue, package core.
		{10, []string{"sfcmdt/internal/core.(*SFC).Lookup", p + "executeLoad", p + "issue", p + "step", p + "Run"}},
		// Runtime leaf under RecordAt under fetch: package replay, RecordAt.
		{20, []string{"runtime.memmove", "sfcmdt/internal/replay.(*View).RecordAt", p + "fetch", p + "step"}},
		// Elision: stage elide, package pipeline.
		{5, []string{p + "quiesce", p + "tryElide", p + "Run"}},
		// Outside the simulator.
		{1, []string{"runtime.gcBgMarkWorker"}},
	}
	g := Group(samples)
	if g.Total != 36 || g.Stage["issue"] != 10 || g.Stage["fetch"] != 20 || g.Stage["elide"] != 5 || len(g.Stage) != 3 {
		t.Errorf("stages %v total %g", g.Stage, g.Total)
	}
	if g.Package["core"] != 10 || g.Package["replay"] != 20 || g.Package["pipeline"] != 5 || len(g.Package) != 3 {
		t.Errorf("packages %v", g.Package)
	}
	if g.RecordAt != 20 {
		t.Errorf("RecordAt %g", g.RecordAt)
	}
	if got := CumPrefix(samples, p+"Run"); got != 15 {
		t.Errorf("CumPrefix(Run) = %g, want 15", got)
	}
	h := "sfcmdt/internal/harness.(*Runner).RunContext"
	runner := []Sample{
		{40, []string{p + "step", p + "Run", p + "RunContext", h}},
		{3, []string{p + "reset", p + "Reset", h}},
		{2, []string{"runtime.mallocgc", h}},
		{7, []string{"runtime.gcBgMarkWorker"}},
	}
	if got := CumOutside(runner, h, p+"reset", p+"Run"); got != 2 {
		t.Errorf("CumOutside(RunContext; reset, Run) = %g, want 2", got)
	}
}
