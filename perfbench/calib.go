package main

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// Host-speed normalisation. The benchmark runs on shared hosts whose
// speed drifts by tens of percent over seconds and by up to a factor of
// two over minutes, more than any bound a regression check could use.
// Every pass therefore follows each timed operation (a cell, a segment
// of the serve stream) with a burst of a fixed calibration kernel, which
// no change to the program can affect, lasting calibShare of the
// operation's time, with nothing in flight and outside every timed
// interval. The operation's factor is refRunS over the median kernel run
// of its burst. The parent multiplies a cell's latency by its cell's
// factor, and a pass's walls, set-up, layer self times and serve
// latencies (requests overlap) by the time-weighted mean factor of its
// operations. A reported time is thus the time the work would have taken
// on a host that runs the kernel in refRunS: a slower host and a slower
// program are told apart, because only the program's slowdown survives
// the division. The raw times are printed alongside.

// refRunS is one kernel run's time on the reference host (a 2-vCPU
// Intel Xeon VM); it only sets the scale.
const refRunS = 0.00026

// calibShare is the calibration time per second of timed work.
const calibShare = 0.05

// minRuns is the fewest kernel runs a factor is taken over: a short
// operation's own burst is topped up with the latest runs before it.
const minRuns = 16

// kernelIters is the length of one kernel run.
const kernelIters = 1 << 16

// calibTableLen is the kernel's working set per CPU in 8-byte words
// (256 KiB): cache resident, like the simulator's and the analyses' hot
// data, so it slows down with the host in the same way.
const calibTableLen = 1 << 15

// calibrator runs the kernel on every CPU the benchmark uses at once,
// after each timed operation, and sums the operations' raw and
// normalised times.
type calibrator struct {
	tables [][]uint64
	paused time.Duration // wall time spent calibrating
	runs   []float64     // every kernel run's seconds, latest last
	raw    float64       // Σ operation seconds
	norm   float64       // Σ operation seconds × factor
	// tr, when not nil, records each calibration as a bench.calibrate
	// span under root, so no layer's self time includes it.
	tr   *tracer
	root int
}

func newCalibrator(procs int, tr *tracer, root int) *calibrator {
	c := &calibrator{tables: make([][]uint64, procs), tr: tr, root: root}
	for i := range c.tables {
		c.tables[i] = make([]uint64, calibTableLen)
	}
	return c
}

// timed ends an operation that started at t: it calibrates for about
// calibShare of the operation's time (at least one kernel run on every
// CPU at once), and returns the operation's milliseconds and factor.
// The pass leaves the calibration's time out of its timed intervals.
func (c *calibrator) timed(t time.Time) (ms, factor float64) {
	d := time.Since(t)
	if c.tr != nil {
		defer c.tr.end(c.tr.start(spanCalibrate, c.root))
	}
	start := time.Now()
	n := max(1, int(calibShare*d.Seconds()/refRunS))
	runs := make([][]float64, len(c.tables))
	var wg sync.WaitGroup
	for i := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An untimed first run brings the table back into the cache
			// after the operation, so the operation cannot change the
			// time of the runs that count.
			calibSink[i%len(calibSink)] = kernel(c.tables[i], uint64(i+1))
			runs[i] = make([]float64, n)
			for k := range runs[i] {
				t := time.Now()
				calibSink[i%len(calibSink)] = kernel(c.tables[i], uint64(i+1))
				runs[i][k] = time.Since(t).Seconds()
			}
		}()
	}
	wg.Wait()
	c.paused += time.Since(start)
	c.runs = append(c.runs, slices.Concat(runs...)...)
	factor = refRunS / median(c.runs[max(0, len(c.runs)-max(minRuns, n*len(runs))):])
	c.raw += d.Seconds()
	c.norm += d.Seconds() * factor
	return float64(d.Nanoseconds()) / 1e6, factor
}

// factor returns the time-weighted mean factor of the operations so
// far, or 0 if there were none.
func (c *calibrator) factor() float64 {
	if c.raw == 0 {
		return 0
	}
	return c.norm / c.raw
}

// calibSink keeps the kernel's results live so the compiler cannot drop
// the work.
var calibSink [64]uint64

// kernel is the fixed calibration work: xorshift-addressed
// read-modify-writes of tab with a data-dependent branch.
func kernel(tab []uint64, seed uint64) uint64 {
	x := 0x9e3779b97f4a7c15 ^ seed
	mask := uint64(len(tab) - 1)
	var s uint64
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		s += tab[j]
		tab[j] = s + x
		if s&3 == 0 {
			s ^= x >> 3
		}
	}
	return s
}

// normalise puts the report's host times on the reference host:
// latencies by their operations' factors, walls by their phases' mean
// factors, and set-up and layer self times (the metrics named *_s) by
// the cold phase's. Simulated counts, savings and the daemon's own
// histograms are left as they are.
func (r *passReport) normalise() {
	for i := range r.ColdMs {
		r.ColdMs[i] *= r.ColdF[i]
	}
	for i := range r.HitMs {
		r.HitMs[i] *= r.HitF[i]
	}
	r.SetupS *= r.WallF
	for k, v := range r.Metrics {
		if strings.HasSuffix(k, "_s") {
			r.Metrics[k] = v * r.WallF
		}
	}
	r.OpsWallS = r.WallS*r.WallF + (r.OpsWallS-r.WallS)*r.WarmF
	r.WallS *= r.WallF
}
