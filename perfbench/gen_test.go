package main

import (
	"reflect"
	"sort"
	"testing"

	"locsched/internal/workload"
)

func TestDrawMixDefaultSeedCycles(t *testing.T) {
	names := workload.Names()
	got := drawMix(0, 3, famRung, 8)
	for i, name := range got {
		if want := names[i%len(names)]; name != want {
			t.Fatalf("seed 0 task %d = %s, want BuildMany's %s", i, name, want)
		}
	}
	if six := drawMix(0, 3, famSweepMix, 6); !reflect.DeepEqual(six, names) {
		t.Fatalf("seed 0 six-task mix = %v, want the paper's %v", six, names)
	}
}

func TestDrawMixSeeded(t *testing.T) {
	a, b := drawMix(7, 0, famRung, 32), drawMix(7, 0, famRung, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different mixes")
	}
	if c := drawMix(8, 0, famRung, 32); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same 32-task mix")
	}
	if c := drawMix(7, 1, famRung, 32); reflect.DeepEqual(a, c) {
		t.Fatal("draws 0 and 1 of one seed drew the same 32-task mix")
	}
	if c := drawMix(7, 0, famRung+1, 32); reflect.DeepEqual(a, c) {
		t.Fatal("two families of one seed drew the same 32-task mix")
	}
	// A draw keeps the cycled multiset: only the order changes.
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sorted(a), sorted(drawMix(0, 0, famRung, 32))) {
		t.Fatal("a seeded mix changed which applications it holds")
	}
}

func TestServeStreamSeeded(t *testing.T) {
	const n = 600
	a := serveStream(5, 0, n)
	if !reflect.DeepEqual(a, serveStream(5, 0, n)) {
		t.Fatal("the same seed and epoch gave different streams")
	}
	if reflect.DeepEqual(a, serveStream(6, 0, n)) {
		t.Fatal("seeds 5 and 6 gave the same stream")
	}
	if reflect.DeepEqual(a, serveStream(5, 1, n)) {
		t.Fatal("epochs 0 and 1 gave the same stream")
	}
	if len(a) != n {
		t.Fatalf("stream length %d, want %d", len(a), n)
	}
}

func TestServeStreamCoversKeySpace(t *testing.T) {
	wls := serveWorkloads()
	runKeys := len(wls) * len(servePolicies) * len(serveCacheKB)
	count := make(map[string]int)
	analyses := 0
	for _, r := range serveStream(1, 0, 1200) {
		count[r.Endpoint+" "+r.Body]++
		if r.Endpoint == "/v1/analysis" {
			analyses++
		}
	}
	if len(count) != runKeys+len(wls) {
		t.Fatalf("stream holds %d distinct keys, want every one of %d", len(count), runKeys+len(wls))
	}
	// Zipf repeats: the most popular key recurs far more than the least.
	hi, lo := 0, 1<<30
	for _, c := range count {
		hi, lo = max(hi, c), min(lo, c)
	}
	if hi < 20*lo {
		t.Errorf("key counts range %d..%d; want a Zipf-skewed stream", lo, hi)
	}
	if share := float64(analyses) / 1200; share < 0.02 || share > 0.15 {
		t.Errorf("analysis share %.3f, want a small share", share)
	}
}
