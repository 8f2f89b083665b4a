// Command perfbench is locsched's benchmark. It runs one named workload
// from a seed, checks that the program's outputs are correct, and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. Run it from the repository root through its wrapper, which
// builds it first:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// Workloads are figures, sweep and serve (see README.md). With --trace 0
// the end-to-end metrics are printed; with --trace 1 the per-layer
// metrics, from traced passes interleaved with untraced ones.
//
// The experiment layer keeps process-wide caches with no reset, so every
// pass runs in a fresh child process of this binary, one child at a
// time: a figures or sweep pass is a cold regeneration followed by warm
// repeats, a serve pass is one epoch of a freshly started daemon. Passes
// repeat until --seconds have elapsed and every reported percentile has
// at least ten samples beyond it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locsched/internal/obs"
)

// passReport is what one child pass hands back to the parent as JSON.
type passReport struct {
	SetupS float64 `json:"setup_s"`
	// WallS is the timed phase: the cold regeneration, or the serve
	// epoch's request stream.
	WallS float64 `json:"wall_s"`
	// OpsWallS covers every operation of the pass, cold and warm.
	OpsWallS float64 `json:"ops_wall_s"`
	// ColdMs and HitMs are per-operation latencies: cells or requests
	// that executed, and ones served from a cache (warm cells, cached
	// responses).
	ColdMs    []float64 `json:"cold_ms"`
	HitMs     []float64 `json:"hit_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Metrics holds the pass's own values: savings, simulated counts,
	// layer self times and daemon counters.
	Metrics map[string]float64 `json:"metrics"`
	// Hists holds daemon latency histograms over the timed phase.
	Hists map[string]obs.HistSnapshot `json:"hists,omitempty"`
	// Digest hashes every simulated outcome; it must repeat exactly.
	Digest string `json:"digest"`
	// Host-speed factors (see calib.go): one per latency, and the mean
	// factors of the timed phase (WallS) and of the warm repeats that
	// follow it (the rest of OpsWallS).
	ColdF    []float64 `json:"cold_f"`
	HitF     []float64 `json:"hit_f"`
	WallF    float64   `json:"wall_f"`
	WarmF    float64   `json:"warm_f"`
	Problems []string  `json:"problems"`
	Spans    []span    `json:"spans,omitempty"`
	// PeakRSSMB, Draw and Traced are filled in by the parent.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Draw      int     `json:"draw"`
	Traced    bool    `json:"traced"`
}

// passFunc runs one pass in this process on input draw number draw of
// the seed; spawned is when the parent started the process, and run
// the id recorded on spans.
type passFunc func(seed int64, draw int, traced bool, spawned time.Time, run string) (*passReport, error)

var workloads = map[string]passFunc{
	"figures": gridPass(figuresSpec("testdata")),
	"sweep":   gridPass(sweepSpec()),
	"serve":   runServePass,
}

func gridPass(spec gridSpec) passFunc {
	return func(seed int64, draw int, traced bool, spawned time.Time, run string) (*passReport, error) {
		return runGridPass(spec, seed, draw, traced, spawned, run)
	}
}

// The percentiles reported for hit and cold latencies; passes repeat
// until both have minBeyond samples beyond them.
const (
	hitPct  = 95
	coldPct = 95
)

// Run limits: passes stop starting after maxRunSeconds, so a run ends
// well inside the three minutes a run may take; a child that has not
// finished by childTimeout is killed and fails the run.
const (
	maxRunSeconds = 110
	childTimeout  = 150 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: figures, sweep or serve")
	seed := fs.Int64("seed", 0, "input seed; 0 gives the paper's task orders")
	seconds := fs.Int("seconds", 30, "how long to keep repeating passes")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from traced passes")
	child := fs.Bool("pass", false, "internal: run one pass in this process and print its report")
	traced := fs.Bool("traced", false, "internal: trace the pass")
	spawned := fs.Int64("spawned", 0, "internal: the parent's clock when it started this pass, in Unix ns")
	draw := fs.Int("draw", 0, "internal: the pass's input draw")
	runID := fs.String("run", "", "internal: run id recorded on spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	pass, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload figures|sweep|serve, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	// The benchmark caps its parallelism at two CPUs: two daemon workers,
	// two clients, and an experiment worker budget of two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *child {
		rep, err := pass(*seed, *draw, *traced, time.Unix(0, *spawned), *runID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", *wl, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, *wl, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload repeats passes in child processes, then aggregates them.
func runWorkload(ctx context.Context, wl string, seed int64, seconds int, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	host := hostFacts(seed)
	printJSON("host", host)
	start := time.Now()
	var reps []*passReport
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if elapsed >= maxRunSeconds {
			break
		}
		if elapsed >= float64(seconds) && enough(reps, trace) {
			break
		}
		// Each pass draws fresh inputs from the seed, so a run's medians
		// average over several draws. A traced run alternates untraced and
		// traced passes on the same draw, so their walls and simulated
		// outcomes compare like for like.
		draw, tracedPass := i, false
		if trace {
			draw, tracedPass = i/2, i%2 == 1
		}
		rep, err := runPass(ctx, self, wl, seed, i, draw, tracedPass)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	cal := map[string][]float64{"wall_f": nil, "warm_f": nil, "raw_wall_s": nil}
	for _, r := range reps {
		cal["wall_f"] = append(cal["wall_f"], r.WallF)
		cal["warm_f"] = append(cal["warm_f"], r.WarmF)
		cal["raw_wall_s"] = append(cal["raw_wall_s"], r.WallS)
	}
	printJSON("calibration", map[string]any{"ref_run_s": refRunS, "passes": cal})
	if !trace {
		raw, samples := endToEnd(reps)
		printJSON("samples", samples)
		printJSON("raw", raw)
	}
	var hits []float64
	for _, r := range reps {
		r.normalise()
		hits = append(hits, r.HitMs...)
	}
	if !trace && supports(len(hits), 99) {
		printJSON("tail", map[string]float64{"hit_p99_ms": percentile(hits, 99)})
	}
	if !enough(reps, trace) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run limit reached before every percentile had %d samples beyond it\n", wl, minBeyond)
	}
	res := &result{Metrics: map[string]metric{}}
	var problems []string
	first := make(map[int]int) // draw → first pass on it
	for i, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		problems = append(problems, r.Problems...)
		if j, ok := first[r.Draw]; !ok {
			first[r.Draw] = i
		} else if r.Digest != reps[j].Digest {
			problems = append(problems, fmt.Sprintf("pass %d (traced %v): simulated outcomes differ from pass %d (traced %v) on the same draw",
				i, r.Traced, j, reps[j].Traced))
		}
	}
	if trace {
		perLayer(res, reps)
		if err := writeTrace(wl, seed, host, reps); err != nil {
			return nil, err
		}
	} else {
		res.Metrics, _ = endToEnd(reps)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, nil
}

// enough reports whether the passes so far support every reported
// percentile (and, in a traced run, hold both pass kinds).
func enough(reps []*passReport, trace bool) bool {
	if trace {
		return len(reps) >= 2
	}
	var hits, cold int
	for _, r := range reps {
		hits += len(r.HitMs)
		cold += len(r.ColdMs)
	}
	return len(reps) >= savingDraws && supports(hits, hitPct) && supports(cold, coldPct)
}

// runPass runs one pass in a child process and returns its report.
func runPass(ctx context.Context, self, wl string, seed int64, index, draw int, traced bool) (*passReport, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	runID := fmt.Sprintf("%s-s%d-p%d", wl, seed, index)
	spawned := time.Now()
	cmd := exec.CommandContext(ctx, self, "--workload", wl, "--pass", "--draw", strconv.Itoa(draw),
		"--seed", strconv.FormatInt(seed, 10), "--traced="+strconv.FormatBool(traced),
		"--spawned", strconv.FormatInt(spawned.UnixNano(), 10), "--run", runID)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass %s: %w", wl, runID, err)
	}
	var rep passReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s pass %s: decoding report: %w", wl, runID, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rep.Draw, rep.Traced = draw, traced
	return &rep, nil
}

// pick returns f of every report r with r.Traced == traced.
func pick(reps []*passReport, traced bool, f func(*passReport) float64) []float64 {
	var out []float64
	for _, r := range reps {
		if r.Traced == traced {
			out = append(out, f(r))
		}
	}
	return out
}

// savingDraws is the number of draws saving_pct averages over; an
// untraced run makes at least that many passes, so the metric repeats
// exactly for a seed.
const savingDraws = 4

// End-to-end metrics and their units, as BENCHMARK.json lists them.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MB"}, {"saving_pct", "%"}, {"rps", "1/s"},
	{"hit_p50_ms", "ms"}, {"hit_p95_ms", "ms"}, {"cold_p50_ms", "ms"}, {"cold_p95_ms", "ms"},
	{"success_ratio", "ratio"},
}

// endToEnd returns the end-to-end metrics of untraced passes and the
// sample counts behind them.
func endToEnd(reps []*passReport) (map[string]metric, map[string]int) {
	var hits, cold []float64
	attempted, ok := 0, 0
	var savings []float64
	for i, r := range reps {
		if i < savingDraws {
			savings = append(savings, r.Metrics["saving_pct"])
		}
		hits = append(hits, r.HitMs...)
		cold = append(cold, r.ColdMs...)
		attempted += r.Attempted
		ok += r.Attempted - r.Failed
	}
	med := func(f func(*passReport) float64) float64 { return median(pick(reps, false, f)) }
	values := map[string]float64{
		"setup_s":       med(func(r *passReport) float64 { return r.SetupS }),
		"wall_s":        med(func(r *passReport) float64 { return r.WallS }),
		"peak_rss_mb":   med(func(r *passReport) float64 { return r.PeakRSSMB }),
		"saving_pct":    mean(savings),
		"rps":           med(func(r *passReport) float64 { return float64(r.Attempted) / r.OpsWallS }),
		"hit_p50_ms":    percentile(hits, 50),
		"hit_p95_ms":    percentile(hits, hitPct),
		"cold_p50_ms":   percentile(cold, 50),
		"cold_p95_ms":   percentile(cold, coldPct),
		"success_ratio": ratio(int64(ok), int64(attempted)),
	}
	out := make(map[string]metric, len(endToEndUnits))
	for _, m := range endToEndUnits {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out, map[string]int{"passes": len(reps), "hit": len(hits), "cold": len(cold)}
}

// Per-layer metrics and their units. Self times come from traced
// passes; experiment cache ratios come from untraced ones, because the
// traced pipeline calls the layers below the experiment layer directly.
var layerUnits = []struct{ name, unit string }{
	{"workload.build_s", "s"}, {"taskgraph.fingerprint_s", "s"}, {"layout.pack_s", "s"},
	{"sharing.matrix_s", "s"}, {"sched.ls_s", "s"}, {"sched.lsm_s", "s"},
	{"mpsoc.runner_build_s", "s"}, {"mpsoc.simulate_s", "s"}, {"experiment.cell_s", "s"},
	{"server.request_s", "s"}, {"bench.pass_s", "s"}, {"bench.epoch_s", "s"},
	{"bench.traced_wall_s", "s"}, {"bench.untraced_wall_s", "s"}, {"bench.trace_overhead_s", "s"},
	{"mpsoc.accesses_per_host_s", "1/s"},
	{"sched.lsm_relaid_arrays", "count"}, {"layout.pressure_before", "count"}, {"layout.pressure_after", "count"},
	{"cache.accesses", "count"}, {"cache.misses", "count"}, {"cache.conflict_misses", "count"},
	{"cache.hit_ratio", "ratio"}, {"mpsoc.sim_cycles", "count"}, {"mpsoc.preemptions", "count"},
	{"mpsoc.migrations", "count"}, {"lsm_vs_rrs_saving_pct", "%"}, {"ls_vs_rrs_saving_pct", "%"},
	{"experiment.cells", "count"}, {"experiment.analysis_hit_ratio", "ratio"}, {"experiment.runner_pool_hits", "count"},
	{"server.requests", "count"}, {"server.executions", "count"}, {"server.cache_hits", "count"},
	{"server.coalesced", "count"}, {"server.rejected", "count"}, {"server.hit_ratio", "ratio"},
	{"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p99_ms", "ms"},
	{"server.execution_p50_ms", "ms"}, {"server.execution_p95_ms", "ms"},
	{"store.writes", "count"}, {"store.misses", "count"}, {"store.put_p50_ms", "ms"}, {"store.put_p99_ms", "ms"},
}

// untracedLayer names the per-layer metrics read from untraced passes.
var untracedLayer = map[string]bool{
	"experiment.cells": true, "experiment.analysis_hit_ratio": true, "experiment.runner_pool_hits": true,
}

// simulated names the per-layer metrics that are simulated counts: they
// are read from the first traced pass (draw 0), so they repeat exactly
// from run to run of one seed.
var simulated = map[string]bool{
	"sched.lsm_relaid_arrays": true, "layout.pressure_before": true, "layout.pressure_after": true,
	"cache.accesses": true, "cache.misses": true, "cache.conflict_misses": true, "cache.hit_ratio": true,
	"mpsoc.sim_cycles": true, "mpsoc.preemptions": true, "mpsoc.migrations": true,
	"lsm_vs_rrs_saving_pct": true, "ls_vs_rrs_saving_pct": true,
}

// perLayer fills the per-layer metrics: medians over passes of each
// value, daemon histogram quantiles over the merged traced epochs, and
// the tracing overhead as the difference of the median walls.
func perLayer(res *result, reps []*passReport) {
	tracedWall := median(pick(reps, true, func(r *passReport) float64 { return r.WallS }))
	untracedWall := median(pick(reps, false, func(r *passReport) float64 { return r.WallS }))
	hists := make(map[string]obs.HistSnapshot)
	for _, r := range reps {
		if !r.Traced {
			continue
		}
		for name, h := range r.Hists {
			hists[name] = mergeHist(hists[name], h)
		}
	}
	for _, l := range layerUnits {
		var v float64
		switch l.name {
		case "bench.traced_wall_s":
			v = tracedWall
		case "bench.untraced_wall_s":
			v = untracedWall
		case "bench.trace_overhead_s":
			v = tracedWall - untracedWall
		case "mpsoc.accesses_per_host_s":
			v = median(pick(reps, true, func(r *passReport) float64 {
				return r.Metrics["cache.accesses"] / r.Metrics["mpsoc.simulate_s"]
			}))
		case "server.queue_wait_p50_ms", "server.queue_wait_p99_ms", "server.execution_p50_ms",
			"server.execution_p95_ms", "store.put_p50_ms", "store.put_p99_ms":
			i := strings.LastIndex(l.name, "_p")
			q, _ := strconv.ParseFloat(strings.TrimSuffix(l.name[i+2:], "_ms"), 64)
			v = 1000 * hists[l.name[:i]].Quantile(q/100)
		default:
			vs := pick(reps, !untracedLayer[l.name], func(r *passReport) float64 { return r.Metrics[l.name] })
			if v = median(vs); simulated[l.name] {
				v = vs[0]
			}
		}
		if v != v || v > 1e300 || v < -1e300 { // NaN or ±Inf: the layer did no work
			v = 0
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
}

// mergeHist adds b's counts into a (which may be empty).
func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Counts == nil {
		a.Bounds = b.Bounds
		a.Counts = make([]int64, len(b.Counts))
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Sum += b.Sum
	a.Count += b.Count
	return a
}

// hostFacts records the host a result was measured on.
func hostFacts(seed int64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not built in a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "seed": seed,
	}
}

// writeTrace writes the spans of every traced pass, with the host facts,
// under .bench_build/trace in the working directory. Span parents index
// into their own pass's list.
func writeTrace(wl string, seed int64, host map[string]any, reps []*passReport) error {
	type passSpans struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}
	var passes []passSpans
	n := 0
	for _, r := range reps {
		if len(r.Spans) > 0 {
			passes = append(passes, passSpans{Run: r.Spans[0].Run, Spans: r.Spans})
			n += len(r.Spans)
		}
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"host": host, "passes": passes})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", wl, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	printJSON("trace", map[string]any{"file": path, "spans": n})
	return nil
}

// printJSON prints one labelled JSON line ahead of the result line.
func printJSON(label string, v any) {
	b, _ := json.Marshal(v) // maps of strings and numbers always marshal
	fmt.Printf("# %s: %s\n", label, b)
}
