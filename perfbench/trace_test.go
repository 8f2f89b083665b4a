package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimesNested(t *testing.T) {
	// root [0,100s] ── cell [10,60] ── lsm [20,50]
	//              └── cell [70,90] ── sim [75,80]
	const s = int64(1e9)
	spans := []span{
		{Name: "root", Start: 0, End: 100 * s, Parent: -1},
		{Name: "cell", Start: 10 * s, End: 60 * s, Parent: 0},
		{Name: "lsm", Start: 20 * s, End: 50 * s, Parent: 1},
		{Name: "cell", Start: 70 * s, End: 90 * s, Parent: 0},
		{Name: "sim", Start: 75 * s, End: 80 * s, Parent: 3},
	}
	got := selfTimes(spans)
	want := map[string]float64{"root": 30, "cell": 20 + 15, "lsm": 30, "sim": 5}
	total := 0.0
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self(%s) = %g, want %g", name, got[name], w)
		}
		total += got[name]
	}
	// Without overlap, self times partition the root exactly.
	if !near(total, 100) {
		t.Errorf("self times sum to %g, want the root's 100", total)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two concurrent clients: children [10,30] and [20,50] overlap and
	// count once; [90,120] overruns the parent and is clipped at 100.
	spans := []span{
		{Name: "epoch", Start: 0, End: 100, Parent: -1},
		{Name: "req", Start: 10, End: 30, Parent: 0},
		{Name: "req", Start: 20, End: 50, Parent: 0},
		{Name: "req", Start: 90, End: 120, Parent: 0},
	}
	got := selfTimes(spans)
	if want := float64(100-40-10) / 1e9; !near(got["epoch"], want) {
		t.Errorf("self(epoch) = %g, want %g", got["epoch"], want)
	}
	if want := float64(20+30+30) / 1e9; !near(got["req"], want) {
		t.Errorf("self(req) = %g, want %g", got["req"], want)
	}
}

func TestSelfTimesSkipsOpenSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "open", Start: 2, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	if !near(got["root"], 10/1e9) || got["open"] != 0 {
		t.Errorf("selfTimes = %v; an open span must neither count nor cover", got)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.start("root", -1)
	if err := tr.do("child", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Run != "run-1" || s.End < s.Start {
			t.Errorf("span %+v: want run id run-1 and end ≥ start", s)
		}
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v escapes its parent %+v", spans[1], spans[0])
	}
}
