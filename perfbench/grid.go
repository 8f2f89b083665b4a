package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/workload"
)

// appBuilder builds named tasks with task IDs 0..n-1; the traced pass
// wraps it in a workload.build span.
type appBuilder func(names []string, p workload.Params) ([]*workload.App, error)

// gridSpec is a workload made of simulation cells (figures, sweep). A
// pass runs every cell once in a fresh process (cold) and then warmReps
// more times (warm: the experiment layer's analysis cache and runner
// pool now hit), one cell at a time.
type gridSpec struct {
	// prepare derives the seeded inputs and returns the cell generator;
	// it runs during set-up. cells runs inside the timed phase, so
	// workload construction is measured.
	prepare  func(seed int64, draw int) (cells func(appBuilder) ([]cell, error), err error)
	warmReps int
	// headline is the locality policy whose saving over RRS is the
	// workload's saving_pct.
	headline experiment.Policy
	// check runs after the timed phases and returns failed output checks.
	check func(cells []cell, outs []outcome) []string
}

// baseConfig is the paper's Table 2 machine at the given scale, with
// cells run one at a time and the experiment worker budget at
// GOMAXPROCS (used inside a cell, e.g. by the blocked sharing matrix).
func baseConfig(scale int) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Workload.Scale = scale
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// xlPolicies are the columns of the Figure 7-XL rungs and the serve key
// space: the paper's four plus ARR.
var xlPolicies = []experiment.Policy{experiment.RS, experiment.RRS, experiment.ARR, experiment.LS, experiment.LSM}

// figuresSpec regenerates Figure 6, Figure 7 and the Figure 7-XL rungs.
func figuresSpec(goldenDir string) gridSpec {
	var fig6, fig7 []byte
	return gridSpec{
		warmReps: 8,
		headline: experiment.LSM,
		prepare: func(seed int64, draw int) (func(appBuilder) ([]cell, error), error) {
			var err error
			if fig6, err = os.ReadFile(filepath.Join(goldenDir, "fig6.golden")); err != nil {
				return nil, err
			}
			if fig7, err = os.ReadFile(filepath.Join(goldenDir, "fig7.golden")); err != nil {
				return nil, err
			}
			cfg := baseConfig(2)
			points := experiment.DefaultXLPoints()
			mixes := make([][]string, len(points))
			for i, pt := range points {
				mixes[i] = drawMix(seed, draw, famRung+uint64(i), pt.Tasks)
			}
			return func(build appBuilder) ([]cell, error) {
				apps, err := build(workload.Names(), cfg.Workload)
				if err != nil {
					return nil, err
				}
				var cells []cell
				for _, a := range apps {
					for _, p := range experiment.Policies() {
						cells = append(cells, cell{row: "fig6 " + a.Name, policy: p, apps: []*workload.App{a}, cfg: cfg})
					}
				}
				for i := range apps {
					for _, p := range experiment.Policies() {
						cells = append(cells, cell{row: fmt.Sprintf("fig7 |T|=%d", i+1), policy: p, apps: apps[:i+1], mix: true, cfg: cfg})
					}
				}
				for i, pt := range points {
					xl, err := build(mixes[i], cfg.Workload)
					if err != nil {
						return nil, err
					}
					c := cfg
					c.Machine.Cores = pt.Cores
					for _, p := range xlPolicies {
						cells = append(cells, cell{row: "fig7xl " + pt.String(), policy: p, apps: xl, mix: true, cfg: c})
					}
				}
				return cells, nil
			}, nil
		},
		check: func(cells []cell, outs []outcome) []string {
			return checkGoldens(cells, outs, fig6, fig7)
		},
	}
}

// checkGoldens regenerates Figures 6 and 7 through the library's own
// harness, compares the formatted tables byte for byte with the goldens,
// and compares the benchmark's cells with the library's.
func checkGoldens(cells []cell, outs []outcome, fig6, fig7 []byte) []string {
	var problems []string
	byRow := make(map[string]outcome)
	for i, c := range cells {
		byRow[c.row+"/"+string(c.policy)] = outs[i]
	}
	cfg := experiment.DefaultConfig()
	for _, g := range []struct {
		name   string
		golden []byte
		run    func(experiment.Config, []experiment.Policy) (*experiment.Table, error)
	}{{"fig6", fig6, experiment.Figure6}, {"fig7", fig7, experiment.Figure7}} {
		t, err := g.run(cfg, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", g.name, err))
			continue
		}
		if experiment.FormatTable(t)+"\n" != string(g.golden) {
			problems = append(problems, g.name+" differs from testdata/"+g.name+".golden")
		}
		for _, row := range t.Rows {
			for p, r := range row.Results {
				if got, ok := byRow[g.name+" "+row.Label+"/"+string(p)]; !ok || got != outcomeOf(r) {
					problems = append(problems, fmt.Sprintf("%s %s/%s: benchmark cell differs from the library's figure", g.name, row.Label, p))
				}
			}
		}
	}
	return problems
}

// sweepSpec runs the SweepXL grid over one seeded 6-task mix at scale 8.
func sweepSpec() gridSpec {
	return gridSpec{
		warmReps: 1,
		headline: experiment.LS,
		prepare: func(seed int64, draw int) (func(appBuilder) ([]cell, error), error) {
			names := drawMix(seed, draw, famSweepMix, len(workload.Names()))
			base := baseConfig(8)
			var cfgs []experiment.Config
			var labels []string
			for _, kb := range []int64{4, 8, 16, 32} {
				for _, ways := range []int{1, 2, 4, 8} {
					for _, pen := range []int64{25, 75, 150, 300} {
						c := base
						c.Machine.Cache.Size = kb << 10
						c.Machine.Cache.Assoc = ways
						c.Machine.MissPenalty = pen
						if err := c.Validate(); err != nil {
							return nil, err
						}
						cfgs = append(cfgs, c)
						labels = append(labels, fmt.Sprintf("%dKB/%dw/m%d", kb, ways, pen))
					}
				}
			}
			return func(build appBuilder) ([]cell, error) {
				apps, err := build(names, base.Workload)
				if err != nil {
					return nil, err
				}
				var cells []cell
				for i, c := range cfgs {
					for _, p := range []experiment.Policy{experiment.RS, experiment.RRS, experiment.ARR, experiment.LS} {
						cells = append(cells, cell{row: labels[i], policy: p, apps: apps, mix: true, cfg: c})
					}
				}
				return cells, nil
			}, nil
		},
	}
}

// runGridPass runs one pass of a cell workload in this process.
func runGridPass(spec gridSpec, seed int64, draw int, traced bool, spawned time.Time, run string) (*passReport, error) {
	cellsOf, err := spec.prepare(seed, draw)
	if err != nil {
		return nil, err
	}
	rep := &passReport{SetupS: time.Since(spawned).Seconds(), Metrics: map[string]float64{}}

	build, exec := appBuilder(buildMix), runCell
	var tr *tracer
	var pl *pipeline
	root := -1
	if traced {
		tr = newTracer(run)
		pl = newPipeline(tr)
		root = tr.start(spanPass, -1)
		build = func(names []string, p workload.Params) ([]*workload.App, error) { return pl.build(names, p, root) }
		exec = func(c cell) (outcome, error) { return pl.run(c, root) }
	}

	cold := newCalibrator(runtime.GOMAXPROCS(0), tr, root)
	warm := newCalibrator(runtime.GOMAXPROCS(0), nil, -1)
	before := experiment.Stats()
	t0 := time.Now()
	cells, err := cellsOf(build)
	if err != nil {
		return nil, err
	}
	cold.timed(t0)
	outs := make([]outcome, len(cells))
	for i, c := range cells {
		t := time.Now()
		outs[i], err = exec(c)
		ms, f := cold.timed(t)
		rep.ColdMs, rep.ColdF = append(rep.ColdMs, ms), append(rep.ColdF, f)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	rep.WallS = (time.Since(t0) - cold.paused).Seconds()
	rep.OpsWallS = rep.WallS
	after := experiment.Stats()
	if traced {
		tr.end(root)
		rep.Spans = tr.snapshot()
		for name, s := range selfTimes(rep.Spans) {
			rep.Metrics[name+"_s"] = s
		}
		rep.Metrics["layout.pressure_before"] = float64(pl.pressureBefore)
		rep.Metrics["layout.pressure_after"] = float64(pl.pressureAfter)
	} else {
		t1 := time.Now()
		for r := 0; r < spec.warmReps; r++ {
			for i, c := range cells {
				t := time.Now()
				o, err := runCell(c)
				ms, f := warm.timed(t)
				rep.HitMs, rep.HitF = append(rep.HitMs, ms), append(rep.HitF, f)
				rep.Attempted++
				switch {
				case err != nil:
					rep.Failed++
					rep.Problems = append(rep.Problems, err.Error())
				case o != outs[i]:
					rep.Problems = append(rep.Problems, fmt.Sprintf("%s/%s: warm outcome differs from cold", c.row, c.policy))
				}
			}
		}
		rep.OpsWallS += (time.Since(t1) - warm.paused).Seconds()
		rep.Metrics["experiment.cells"] = float64(len(cells))
		addExperimentDeltas(rep.Metrics, before, after)
	}
	rep.WallF, rep.WarmF = cold.factor(), warm.factor()

	rep.Problems = append(rep.Problems, checkAccessCounts(cells, outs)...)
	if spec.check != nil && !traced {
		rep.Problems = append(rep.Problems, spec.check(cells, outs)...)
	}
	addSimCounts(rep.Metrics, cells, outs)
	rep.Metrics["saving_pct"] = rep.Metrics[savingName(spec.headline)]
	rep.Digest = digest(outs)
	return rep, nil
}

// addExperimentDeltas adds the experiment layer's cache counters over a
// timed phase: the analysis cache's hit ratio across its matrix, LS and
// LSM tiers, and the runner pool's hits.
func addExperimentDeltas(m map[string]float64, before, after experiment.CacheStats) {
	hits := (after.MatrixHits - before.MatrixHits) + (after.LSHits - before.LSHits) + (after.LSMHits - before.LSMHits)
	misses := (after.MatrixMisses - before.MatrixMisses) + (after.LSMisses - before.LSMisses) + (after.LSMMisses - before.LSMMisses)
	m["experiment.analysis_hit_ratio"] = ratio(hits, hits+misses)
	m["experiment.runner_pool_hits"] = float64(after.RunnerPoolHits - before.RunnerPoolHits)
}

// checkAccessCounts requires hits+misses to be identical across the
// policies of every row: the address traces do not depend on the
// schedule, only their interleaving does.
func checkAccessCounts(cells []cell, outs []outcome) []string {
	var problems []string
	first := make(map[string]int64)
	for i, c := range cells {
		n := outs[i].Hits + outs[i].Misses
		if prev, ok := first[c.row]; !ok {
			first[c.row] = n
		} else if prev != n {
			problems = append(problems, fmt.Sprintf("%s: %s makes %d accesses, another policy %d", c.row, c.policy, n, prev))
		}
	}
	return problems
}

// savingName names the mean-saving metric of a policy over RRS.
func savingName(p experiment.Policy) string {
	if p == experiment.LSM {
		return "lsm_vs_rrs_saving_pct"
	}
	return "ls_vs_rrs_saving_pct"
}

// addSimCounts adds the simulated counts of one pass: totals over every
// cell, and the mean simulated-makespan saving of LS and LSM over RRS
// across the rows that ran both.
func addSimCounts(m map[string]float64, cells []cell, outs []outcome) {
	var acc, miss, conf, cyc, pre, mig, relaid int64
	rrs := make(map[string]int64)
	for i, c := range cells {
		o := outs[i]
		acc += o.Hits + o.Misses
		miss += o.Misses
		conf += o.Conflicts
		cyc += o.Cycles
		pre += o.Preemptions
		mig += o.Migrations
		relaid += int64(o.Relaid)
		if c.policy == experiment.RRS {
			rrs[c.row] = o.Cycles
		}
	}
	m["cache.accesses"] = float64(acc)
	m["cache.misses"] = float64(miss)
	m["cache.conflict_misses"] = float64(conf)
	m["cache.hit_ratio"] = ratio(acc-miss, acc)
	m["mpsoc.sim_cycles"] = float64(cyc)
	m["mpsoc.preemptions"] = float64(pre)
	m["mpsoc.migrations"] = float64(mig)
	m["sched.lsm_relaid_arrays"] = float64(relaid)
	for _, p := range []experiment.Policy{experiment.LS, experiment.LSM} {
		var saving []float64
		for i, c := range cells {
			if base, ok := rrs[c.row]; ok && c.policy == p && base > 0 {
				saving = append(saving, 100*float64(base-outs[i].Cycles)/float64(base))
			}
		}
		m[savingName(p)] = mean(saving)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// digest hashes every simulated outcome of a pass, in cell order.
func digest(v any) string {
	b, _ := json.Marshal(v) // plain structs of integers always marshal
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
