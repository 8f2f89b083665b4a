package main

import (
	"math"
	"testing"
	"time"
)

func TestNormalise(t *testing.T) {
	r := &passReport{
		SetupS:   0.01,
		WallS:    2,
		OpsWallS: 3, // 2 s timed phase + 1 s of warm repeats
		ColdMs:   []float64{10, 20},
		ColdF:    []float64{1.5, 0.5},
		HitMs:    []float64{4},
		HitF:     []float64{2},
		WallF:    1.25,
		WarmF:    0.5,
		Metrics:  map[string]float64{"sched.lsm_s": 0.8, "cache.accesses": 1000, "saving_pct": 12},
	}
	r.normalise()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"cold[0]", r.ColdMs[0], 15},
		{"cold[1]", r.ColdMs[1], 10},
		{"hit[0]", r.HitMs[0], 8},
		{"setup", r.SetupS, 0.0125},
		{"wall", r.WallS, 2.5},
		{"ops wall", r.OpsWallS, 2*1.25 + 1*0.5},
		{"self time", r.Metrics["sched.lsm_s"], 1},
		{"count", r.Metrics["cache.accesses"], 1000},
		{"saving", r.Metrics["saving_pct"], 12},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestCalibratorWeighsByTime(t *testing.T) {
	c := newCalibrator(1, nil, -1)
	if c.factor() != 0 {
		t.Fatalf("factor before any operation = %g, want 0", c.factor())
	}
	start := time.Now().Add(-20 * time.Millisecond)
	ms, f := c.timed(start)
	if ms < 20 || f <= 0 {
		t.Fatalf("timed = %g ms, factor %g; want ≥ 20 ms and a positive factor", ms, f)
	}
	if c.paused <= 0 {
		t.Fatalf("calibration time %v not recorded", c.paused)
	}
	// One operation: the mean factor is its factor.
	if got := c.factor(); math.Abs(got-f) > 1e-12*f {
		t.Fatalf("factor() = %g, want %g", got, f)
	}
	// Short operations get one run per CPU each; the runs accumulate
	// for later factors to span at least minRuns of them.
	for range minRuns {
		c.timed(time.Now())
	}
	if len(c.runs) < minRuns {
		t.Fatalf("%d kernel runs recorded, want at least %d", len(c.runs), minRuns)
	}
}
