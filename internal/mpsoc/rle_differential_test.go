package mpsoc

import (
	"fmt"
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
	"locsched/internal/workload"
)

// rleDiffMaps returns the two layouts every app is checked under: the
// packed base layout and the LSM-derived relayout (falling back to an
// explicit alternating-bank relayout when the mapping phase moves
// nothing, so the interleaved address formula is always exercised).
func rleDiffMaps(t *testing.T, app *workload.App, geom cache.Geometry) map[string]layout.AddressMap {
	t.Helper()
	base, err := layout.Pack(geom.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatalf("%s: Pack: %v", app.Name, err)
	}
	m, err := sharing.ComputeMatrix(app.Graph)
	if err != nil {
		t.Fatalf("%s: ComputeMatrix: %v", app.Name, err)
	}
	_, mapping, err := sched.NewLSM(app.Graph, m, nil, 8, base, geom, nil)
	if err != nil {
		t.Fatalf("%s: NewLSM: %v", app.Name, err)
	}
	rl := mapping.Layout
	if len(mapping.Banks) == 0 {
		banks := make(map[*prog.Array]int64, len(app.Arrays))
		for i, arr := range app.Arrays {
			banks[arr] = int64(i%2) * (geom.PageSize() / 2)
		}
		rl, err = layout.ApplyRelayout(base, geom, banks)
		if err != nil {
			t.Fatalf("%s: ApplyRelayout: %v", app.Name, err)
		}
	}
	return map[string]layout.AddressMap{"Packed": base, "Relayouted": rl}
}

// rleDiffConfigs returns the machine variants the engine is compared
// with its per-access replay under: the Table 2 default, a
// quantum-stressing small-cache variant, a write-back variant
// (dirty-eviction cycles must also match), and a heterogeneous variant
// (per-core speed classes on a mesh with a hop penalty — the per-core
// cost tables must agree too).
func rleDiffConfigs() map[string]Config {
	def := DefaultConfig()

	small := DefaultConfig()
	small.Cache = cache.Geometry{Size: 1024, BlockSize: 32, Assoc: 2}
	small.Cores = 2

	wb := DefaultConfig()
	wb.WritePolicy = cache.WriteBack
	wb.WritebackPenalty = 40

	het := DefaultConfig()
	het.Machine = Machine{SpeedClasses: "1,3", Topology: TopoMesh, HopPenalty: 16}

	return map[string]Config{"Table2": def, "SmallCache": small, "WriteBack": wb, "Hetero": het}
}

// rleDiffDispatchers returns fresh dispatcher constructors. The quantum
// 193 is deliberately small and odd: it forces preemptions mid-iteration
// (and mid-run resumes on other cores), the hardest case for run
// splitting.
func rleDiffDispatchers(t *testing.T) map[string]func() Dispatcher {
	t.Helper()
	return map[string]func() Dispatcher{
		"RS": func() Dispatcher { return sched.NewRandom(7) },
		"RRS-193": func() Dispatcher {
			d, err := sched.NewRoundRobin(193)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"RRS-4096": func() Dispatcher {
			d, err := sched.NewRoundRobin(4096)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		// ARR exercises the affinity machinery end to end: warm-biased
		// picks, hint-ordered wakes, quantum batching on warm resumes,
		// and decaying bindings — all with the same odd quantum that
		// forces mid-iteration preemption.
		"ARR-193": func() Dispatcher {
			d, err := sched.NewAffinityRR(sched.AffinityConfig{
				Quantum: 193, Window: 4, QBatch: 2, Decay: 50000,
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

// oracleAxisConfigs returns further machine axes the engine is held to
// the per-access oracle under: the non-LRU replacement policies (the
// batched cache entry points have FIFO and random arms), both prime-hash
// set indexings, a 4 KB direct-mapped cache with a 25-cycle miss
// penalty, and a 512 B 2-way write-back cache (its thrashing windows
// evict lines dirtied before the window, which is what separates a
// write-back warm-up of 2 iterations from the required 3).
func oracleAxisConfigs() map[string]Config {
	with := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	return map[string]Config{
		"FIFO":          with(func(c *Config) { c.Replacement = cache.FIFO }),
		"Random":        with(func(c *Config) { c.Replacement = cache.RandomRepl }),
		"PrimeModulo":   with(func(c *Config) { c.Indexing = cache.PrimeModuloIndexing }),
		"PrimeDisplace": with(func(c *Config) { c.Indexing = cache.PrimeDisplacementIndexing }),
		"DM4K-miss25": with(func(c *Config) {
			c.Cache = cache.Geometry{Size: 4 << 10, BlockSize: 32, Assoc: 1}
			c.MissPenalty = 25
		}),
		"WB-2w512": with(func(c *Config) {
			c.Cache = cache.Geometry{Size: 512, BlockSize: 32, Assoc: 2}
			c.WritePolicy = cache.WriteBack
			c.WritebackPenalty = 40
		}),
	}
}

// oracleAxisDispatchers returns further dispatcher axes over graph g on
// the given core count: RRS at quanta 512 and 8192, the three StaticMode
// interpretations of the LS assignment, and ARR windows 0/4 × quantum
// batches 1/4 at a 2048-cycle quantum.
func oracleAxisDispatchers(t *testing.T, g *taskgraph.Graph, cores int) map[string]func() Dispatcher {
	t.Helper()
	m, err := sharing.ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := sched.LocalitySchedule(g, m, cores)
	if err != nil {
		t.Fatal(err)
	}
	ds := map[string]func() Dispatcher{
		"RRS-512":  func() Dispatcher { return sched.MustRoundRobin(512) },
		"RRS-8192": func() Dispatcher { return sched.MustRoundRobin(8192) },
	}
	for _, mode := range []sched.StaticMode{sched.StrictOrder, sched.SkipBlocked, sched.StealWhenIdle} {
		ds["LS-"+mode.String()] = func() Dispatcher { return sched.NewStaticMode("LS", asg, mode) }
	}
	for _, w := range []int{0, 4} {
		for _, k := range []int{1, 4} {
			ds[fmt.Sprintf("ARR-w%d-k%d", w, k)] = func() Dispatcher {
				return sched.MustAffinityRR(sched.AffinityConfig{Quantum: 2048, Window: w, QBatch: k})
			}
		}
	}
	return ds
}

// checkMatchesReplay runs one cell on the engine and on the per-access
// oracle and fails unless the results are deeply identical.
func checkMatchesReplay(t *testing.T, g *taskgraph.Graph, mkDisp func() Dispatcher, am layout.AddressMap, cfg Config) {
	t.Helper()
	want, err := runReplay(g, mkDisp(), am, cfg)
	if err != nil {
		t.Fatalf("per-access replay: %v", err)
	}
	got, err := Run(g, mkDisp(), am, cfg)
	if err != nil {
		t.Fatalf("RLE engine: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("results diverge:\nreplay: %+v\nrle:    %+v", want, got)
	}
}

// TestRLEEngineMatchesFlat is the engine's oracle matrix: for every
// Table 1 application under both address maps, every machine variant of
// rleDiffConfigs and oracleAxisConfigs, and every dispatcher of
// rleDiffDispatchers and oracleAxisDispatchers, the strided-RLE
// block-coalesced engine produces results bit-identical to the
// per-access flat-order replay (replaySegment): makespan, per-core busy
// cycles and cache stats (hits, cold/capacity/conflict misses,
// writebacks), completion times, preemption, affinity and idle counts.
// A seeded eight-application mix on 32 cores runs the five policy
// families the same way.
func TestRLEEngineMatchesFlat(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := rleDiffConfigs()
	for name, cfg := range oracleAxisConfigs() {
		cfgs[name] = cfg
	}
	for cfgName, cfg := range cfgs {
		for _, app := range apps {
			disps := rleDiffDispatchers(t)
			for name, d := range oracleAxisDispatchers(t, app.Graph, cfg.Cores) {
				disps[name] = d
			}
			for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
				for dName, mkDisp := range disps {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", cfgName, app.Name, amName, dName), func(t *testing.T) {
						checkMatchesReplay(t, app.Graph, mkDisp, am, cfg)
					})
				}
			}
		}
	}

	t.Run("Mix8-32c", func(t *testing.T) {
		mix, err := workload.BuildMany(8, workload.Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, arrays, err := workload.Combine(mix...)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Cores = 32
		base, err := layout.Pack(cfg.Cache.BlockSize, arrays...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sharing.ComputeMatrix(g)
		if err != nil {
			t.Fatal(err)
		}
		_, mapping, err := sched.NewLSM(g, m, nil, cfg.Cores, base, cfg.Cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells := map[string]struct {
			am     layout.AddressMap
			mkDisp func() Dispatcher
		}{
			"RS":  {base, func() Dispatcher { return sched.NewRandom(1) }},
			"RRS": {base, func() Dispatcher { return sched.MustRoundRobin(2048) }},
			"ARR": {base, func() Dispatcher {
				return sched.MustAffinityRR(sched.AffinityConfig{Quantum: 2048, Window: 256, QBatch: 8})
			}},
			"LS":  {base, func() Dispatcher { return sched.NewStatic("LS", mapping.Assignment) }},
			"LSM": {mapping.Layout, func() Dispatcher { return sched.NewStatic("LSM", mapping.Assignment) }},
		}
		for name, c := range cells {
			t.Run(name, func(t *testing.T) { checkMatchesReplay(t, g, c.mkDisp, c.am, cfg) })
		}
	})
}

// TestRLEEngineSingleRef: processes with exactly one reference take the
// engine's AccessRun fast path (same-block runs resolved in one call
// with no residency probe); a chain of single-ref strided readers and
// writers must stay bit-identical to the per-access replay, with and
// without preemption and under write-back.
func TestRLEEngineSingleRef(t *testing.T) {
	arr := prog.MustArray("sr.A", 4, 1<<16)
	g := taskgraph.New()
	var prev taskgraph.ProcID
	for i := 0; i < 6; i++ {
		iter := prog.Seg("i", 0, 700)
		kind := prog.Read
		if i%2 == 1 {
			kind = prog.Write
		}
		// Varied strides and overlapping offsets: spans of different
		// lengths, some same-block reuse across processes.
		spec := prog.MustProcessSpec(fmt.Sprintf("sr.p%d", i), iter, 2,
			prog.StreamRef(arr, kind, iter, int64(1+i%3), int64(i*512)))
		id := taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if i > 0 && i%2 == 0 {
			if err := g.AddDep(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	base, err := layout.Pack(32, arr)
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, cfg := range rleDiffConfigs() {
		for dName, mkDisp := range rleDiffDispatchers(t) {
			t.Run(fmt.Sprintf("%s/%s", cfgName, dName), func(t *testing.T) {
				checkMatchesReplay(t, g, mkDisp, base, cfg)
			})
		}
	}
}

// TestRLEEngineThrashingWindows: on a direct-mapped cache where a
// read of A[i] and a write of B[i] alias in every set, every access
// misses, so no block window can fast-forward as all-hits. The engine
// must still simulate each window per access only until the LRU fixed
// point — 2 iterations under write-through, 3 under write-back — and
// replay the rest, while staying bit-identical to the per-access
// replay.
func TestRLEEngineThrashingWindows(t *testing.T) {
	const cacheBytes, blockBytes = 1024, 32
	a := prog.MustArray("tw.A", 4, cacheBytes/4)
	b := prog.MustArray("tw.B", 4, cacheBytes/4)
	iter := prog.Seg("i", 0, cacheBytes/4-1)
	spec := prog.MustProcessSpec("tw.p", iter, 3,
		prog.StreamRef(a, prog.Read, iter, 1, 0),
		prog.StreamRef(b, prog.Write, iter, 1, 0))
	am, err := layout.Pack(blockBytes, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if am.Addr(b, 0)-am.Addr(a, 0) != cacheBytes {
		t.Fatalf("B does not alias A: bases %d and %d", am.Addr(a, 0), am.Addr(b, 0))
	}
	stream, err := trace.NewGenerator(am).RLE(spec)
	if err != nil {
		t.Fatal(err)
	}
	geom := cache.Geometry{Size: cacheBytes, BlockSize: blockBytes, Assoc: 1}
	for _, wp := range []cache.WritePolicy{cache.WriteThrough, cache.WriteBack} {
		t.Run(wp.String(), func(t *testing.T) {
			run := func(seg segmentFunc) (int64, cache.Stats) {
				cur, err := trace.NewGenerator(am).NewRLECursor(spec)
				if err != nil {
					t.Fatal(err)
				}
				c := cache.MustNew(geom, cache.WithClassification(), cache.WithWritePolicy(wp))
				cycles, done := seg(cur, c, 2, 75, 40, 0, make([]int64, 4), make([]bool, 2))
				if !done {
					t.Fatal("unbounded segment did not complete")
				}
				return cycles, c.Stats()
			}
			// A window is a segment and the pair of blocks its iterations
			// touch.
			type window struct {
				seg            int
				blockA, blockB int64
			}
			perWindow := map[window]int{}
			var simulated int64
			engine := func(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64,
				blockScratch []int64, writeScratch []bool) (int64, bool) {
				return runWindows(cur, c, hitLat, missPenalty, wbPenalty, quantum, blockScratch, writeScratch,
					func(seg int, iter int64) {
						starts, deltas, _ := stream.Seg(seg)
						perWindow[window{seg, (starts[0] + iter*deltas[0]) / blockBytes, (starts[1] + iter*deltas[1]) / blockBytes}]++
						simulated++
					})
			}
			wantCycles, wantStats := run(replaySegment)
			gotCycles, gotStats := run(engine)
			if gotCycles != wantCycles || gotStats != wantStats {
				t.Fatalf("engine (%d cycles, %+v) != per-access replay (%d cycles, %+v)", gotCycles, gotStats, wantCycles, wantStats)
			}
			if wantStats.Hits != 0 {
				t.Fatalf("%d hits: the arrays do not thrash", wantStats.Hits)
			}
			warm := 2
			if wp == cache.WriteBack {
				warm = 3
			}
			for w, n := range perWindow {
				if n > warm {
					t.Errorf("window %+v ran %d iterations per access, want at most %d", w, n, warm)
				}
			}
			if simulated >= stream.Iters() {
				t.Fatalf("%d of %d iterations ran per access: nothing was replayed", simulated, stream.Iters())
			}
		})
	}
}

// TestRLEEngineRunnerReuse: resetting and re-running a Runner (the path
// repeated experiment cells take) stays bit-identical to the per-access
// replay.
func TestRLEEngineRunnerReuse(t *testing.T) {
	app, err := workload.Build("Radar", 0, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := layout.Pack(cfg.Cache.BlockSize, app.Arrays...)
	if err != nil {
		t.Fatal(err)
	}
	flatRunner, err := newReplayRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rleRunner, err := NewRunner(app.Graph, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		flat, err := flatRunner.Run(sched.MustRoundRobin(193))
		if err != nil {
			t.Fatal(err)
		}
		rle, err := rleRunner.Run(sched.MustRoundRobin(193))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flat, rle) {
			t.Errorf("run %d: results diverge:\nflat: %+v\nrle:  %+v", i, flat, rle)
		}
	}
}
