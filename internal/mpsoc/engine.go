package mpsoc

import (
	"fmt"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/sim"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
)

// Dispatcher is the scheduling policy contract. The engine owns readiness
// tracking (dependences) and calls the dispatcher to choose work:
//
//   - Ready(id) announces a process whose predecessors have all completed.
//   - Pick(core, now) asks for the next process to run on a free core; a
//     zero quantum means run to completion. ok=false idles the core until
//     another process completes.
//   - Preempted(id) hands back a process whose quantum expired.
//
// Dispatchers must be deterministic given their seed, may only hand out
// processes previously announced via Ready or Preempted, and a failed
// Pick must be side-effect-free (the engine elides offers it can prove
// would fail).
type Dispatcher interface {
	Name() string
	Ready(id taskgraph.ProcID)
	Pick(core int, now int64) (id taskgraph.ProcID, quantum int64, ok bool)
	Preempted(id taskgraph.ProcID)
}

// CoreAgnostic is an optional Dispatcher capability: implementations
// return true to declare that Pick's success never depends on the core
// argument (global-queue and work-stealing policies). The engine then
// wakes only as many idle cores as it has announced-but-unpicked
// processes instead of re-offering every idle core on every completion —
// at 128 cores the all-but-one failed offers otherwise dominate
// preemptive schedules. Which core receives which process is unchanged
// for policies without affinity hints: idle cores are woken in index
// order (warm cores first for AffinityHinter dispatchers), and the
// elided offers are exactly those that would have failed.
type CoreAgnostic interface {
	CoreAgnostic() bool
}

// SegmentObserver is an optional Dispatcher capability: after every
// executed segment the engine reports which process ran, on which core,
// the cycle the segment ended, and whether the process completed. This
// is the last-core hint an affinity-aware policy (sched.AffinityRR)
// feeds on. SegmentDone is called before the corresponding
// Ready/Preempted announcement and must not affect whether a subsequent
// Pick succeeds.
type SegmentObserver interface {
	SegmentDone(id taskgraph.ProcID, core int, now int64, completed bool)
}

// AffinityHinter is an optional Dispatcher capability for warm-resume
// placement: AffinityHints yields, in dispatch-preference order, the
// last cores of pending processes whose cache contents are still
// expected warm, stopping early when yield returns false. When idle
// cores are requeued the engine wakes hinted cores first (then the rest
// in index order), so the same-cycle offer sequence reaches a preempted
// process's previous core before any colder one. Yielding must be
// deterministic and side-effect-free; a dispatcher that currently has
// no hints (e.g. ARR at affinity strength 0) simply yields nothing and
// leaves the wake order exactly as it would be without the capability.
type AffinityHinter interface {
	AffinityHints(now int64, yield func(core int) bool)
}

// CoreStats aggregates one core's activity.
type CoreStats struct {
	BusyCycles int64
	Segments   int64 // dispatched segments (≥ processes completed on core)
	Procs      int64 // processes completed on this core
	Cache      cache.Stats
}

// Segment is one contiguous execution of a process on a core, recorded
// when Config.RecordTimeline is set.
type Segment struct {
	Core      int
	Proc      taskgraph.ProcID
	Start     int64
	End       int64
	Completed bool
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy      string
	Cycles      int64   // makespan in cycles
	Seconds     float64 // makespan at the configured clock
	PerCore     []CoreStats
	Total       cache.Stats                // all cores combined
	Completion  map[taskgraph.ProcID]int64 // per-process completion cycle
	Preemptions int64
	// AffineResumes and Migrations classify every resumed segment (a
	// dispatch of a process that already executed at least one segment):
	// a resume on the process's previous core is affine — its working
	// set may still be cached — and a resume elsewhere is a migration
	// onto a cold cache. Run-to-completion policies score zero on both.
	AffineResumes int64
	Migrations    int64
	IdleCycles    int64     // Σ cores (makespan − busy)
	Timeline      []Segment // populated when Config.RecordTimeline is set
}

// procCursor is one process's playback state. running marks a process
// whose segment is in flight on some core, so Run can refuse a
// dispatcher that hands it to a second core without a second lookup on
// the dispatch path.
type procCursor struct {
	cur     *trace.RLECursor
	running bool
}

// segmentFunc executes one dispatched segment of cur on cache c until
// completion or quantum expiry (quantum 0 = no limit), returning the
// consumed cycles. blockScratch and writeScratch are the Runner's
// scratch buffers, sized to twice and once the widest reference group.
type segmentFunc func(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64,
	blockScratch []int64, writeScratch []bool) (cycles int64, completed bool)

type evKind int

const (
	evFree evKind = iota // core became free: try to dispatch
	evDone               // segment finished: bookkeeping, then core free
)

type event struct {
	kind      evKind
	core      int
	id        taskgraph.ProcID
	completed bool // for evDone: process ran to completion
}

// Runner owns the per-run machinery of one (graph, address map, machine)
// triple: compiled trace cursors and per-core caches, built once and
// reset between runs. Separating construction from simulation keeps the
// measured path free of setup cost and lets repeated experiments (and
// benchmarks) reuse the compiled streams and cache arenas.
//
// Processes execute as strided run-length-encoded streams
// (runSegmentRLE).
//
// A Runner is not safe for concurrent use; independent experiment cells
// build their own.
type Runner struct {
	g       *taskgraph.Graph
	cfg     Config
	cursors map[taskgraph.ProcID]*procCursor
	caches  []*cache.Cache
	runs    int
	// segment runs one dispatched segment: runSegmentRLE, except in
	// tests, which substitute a per-access replay as the oracle.
	segment segmentFunc
	// Per-core cost tables from the machine model (see machine.go):
	// coreHitLat[c] is the core's speed-scaled hit latency, coreMissBase[c]
	// its base miss penalty including the topology hop term. On the
	// homogeneous zero-value Machine every entry equals cfg.HitLatency /
	// cfg.MissPenalty, so dispatch arithmetic is unchanged bit for bit.
	coreHitLat   []int64
	coreMissBase []int64
	// scratch for runSegmentRLE: the window's blocks and crossing counters
	// (2× the widest reference group) and its write flags (1×).
	blockScratch []int64
	writeScratch []bool
}

// NewRunner validates the configuration and precompiles everything a run
// needs: the trace streams of every process under the address map, and
// the per-core caches. The graph is frozen: analyses and compiled
// streams are cached against its structure, so post-construction
// mutation is rejected from here on.
func NewRunner(g *taskgraph.Graph, am layout.AddressMap, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("mpsoc: empty process graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.Freeze()

	gen := trace.NewGenerator(am)
	cursors := make(map[taskgraph.ProcID]*procCursor, g.Len())
	for _, p := range g.Processes() {
		cur, err := gen.NewRLECursor(p.Spec)
		if err != nil {
			return nil, err
		}
		cursors[p.ID] = &procCursor{cur: cur}
	}

	caches := make([]*cache.Cache, cfg.Cores)
	for i := range caches {
		opts := []cache.Option{
			cache.WithReplacement(cfg.Replacement),
			cache.WithIndexing(cfg.Indexing),
			cache.WithWritePolicy(cfg.WritePolicy),
			cache.WithSeed(cfg.Seed + int64(i)),
		}
		if cfg.Classify {
			opts = append(opts, cache.WithClassification())
		}
		c, err := cache.New(cfg.Cache, opts...)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	maxRefs := 0
	for _, p := range g.Processes() {
		if n := len(p.Spec.Refs); n > maxRefs {
			maxRefs = n
		}
	}
	coreHitLat, coreMissBase, err := cfg.coreCostTables()
	if err != nil {
		return nil, err
	}
	return &Runner{
		g: g, cfg: cfg, cursors: cursors, caches: caches, segment: runSegmentRLE,
		coreHitLat: coreHitLat, coreMissBase: coreMissBase,
		blockScratch: make([]int64, 2*maxRefs),
		writeScratch: make([]bool, maxRefs),
	}, nil
}

// resetForRun rewinds every cursor and cache before a repeat run on a
// reused Runner (the first run starts from construction state). A run
// that failed mid-way leaves in-flight marks behind; the rewind clears
// them with the rest of the cursor state.
func (r *Runner) resetForRun() {
	if r.runs > 0 {
		for _, pc := range r.cursors {
			pc.cur.Reset()
			pc.running = false
		}
		for _, c := range r.caches {
			c.Reset()
		}
	}
	r.runs++
}

// Run simulates the EPG under the dispatcher. The dispatcher must be
// fresh (its ready/queue state is consumed); cursors and caches are
// reset automatically between runs.
func (r *Runner) Run(d Dispatcher) (*Result, error) {
	g, cfg := r.g, r.cfg
	r.resetForRun()

	// avail counts processes announced to the dispatcher (Ready or
	// Preempted) and not yet successfully picked: an upper bound on how
	// many idle-core offers can succeed, and zero means none can.
	avail := 0
	pendingPreds := make(map[taskgraph.ProcID]int, g.Len())
	for _, id := range g.ProcIDs() {
		pendingPreds[id] = len(g.Preds(id))
	}
	for _, id := range g.Roots() {
		d.Ready(id)
		avail++
	}
	coreAgnostic := false
	if ca, ok := d.(CoreAgnostic); ok {
		coreAgnostic = ca.CoreAgnostic()
	}
	observer, _ := d.(SegmentObserver)
	hinter, _ := d.(AffinityHinter)
	// lastCore remembers each process's previous core for the affinity
	// accounting in Result (and mirrors what a SegmentObserver is told).
	lastCore := make(map[taskgraph.ProcID]int, g.Len())

	res := &Result{
		Policy:     d.Name(),
		PerCore:    make([]CoreStats, cfg.Cores),
		Completion: make(map[taskgraph.ProcID]int64, g.Len()),
	}

	events := sim.NewQueue[event]()
	for c := 0; c < cfg.Cores; c++ {
		events.Push(0, event{kind: evFree, core: c})
	}
	idle := make([]bool, cfg.Cores)
	// onCore[c] is the cursor of the segment in flight on core c; its
	// completion event clears the running mark through it.
	onCore := make([]*procCursor, cfg.Cores)
	idleCount := 0
	busyCores := 0
	remaining := g.Len()
	var makespan int64

	// wakeIdle requeues idle cores (in a deterministic order) without
	// allocating. Offers that provably fail are elided — at 128 cores
	// the all-but-one failed offers otherwise dominate preemptive
	// schedules — but only at "quiet" timestamps: when another event is
	// pending at this same cycle (FIFO order pops every same-cycle
	// completion before any same-cycle offer), that event may ready more
	// work before the offers pop, so all idle cores must be offered to
	// keep the offer sequence — and with it the core↔process pairing —
	// exactly as if nothing were elided. At a quiet timestamp nothing
	// can inject work before the offers pop, so offers beyond the
	// announced-work count avail fail for certain: none are pushed when
	// avail is zero, and core-agnostic dispatchers (whose Pick success
	// never depends on the core) need at most avail offers.
	//
	// The wake order is index order, except that an AffinityHinter's
	// hinted cores are woken first: same-cycle evFree events pop FIFO,
	// so the first woken core is the first to Pick, and putting a
	// pending process's previous core there is what turns a would-be
	// migration into a warm resume. The elision itself is unaffected —
	// hints reorder the woken set, never enlarge it.
	wake := func(now int64, c int) {
		idle[c] = false
		idleCount--
		events.Push(now, event{kind: evFree, core: c})
	}
	wakeIdle := func(now int64) {
		if idleCount == 0 {
			return
		}
		quiet := true
		if t, _, ok := events.Peek(); ok && t == now {
			quiet = false
		}
		if quiet && avail <= 0 {
			return
		}
		budget := idleCount
		if quiet && coreAgnostic && avail < budget {
			budget = avail
		}
		if hinter != nil && budget > 0 {
			hinter.AffinityHints(now, func(c int) bool {
				if c >= 0 && c < len(idle) && idle[c] {
					wake(now, c)
					budget--
				}
				return budget > 0 && idleCount > 0
			})
		}
		for c := range idle {
			if budget == 0 {
				break
			}
			if idle[c] {
				wake(now, c)
				budget--
			}
		}
	}

	for remaining > 0 {
		now, ev, ok := events.Pop()
		if !ok {
			return nil, fmt.Errorf("mpsoc: deadlock under policy %s: %d processes never dispatched", d.Name(), remaining)
		}
		switch ev.kind {
		case evDone:
			busyCores--
			onCore[ev.core].running = false
			if observer != nil {
				observer.SegmentDone(ev.id, ev.core, now, ev.completed)
			}
			if ev.completed {
				res.PerCore[ev.core].Procs++
				res.Completion[ev.id] = now
				if now > makespan {
					makespan = now
				}
				remaining--
				for _, succ := range g.Succs(ev.id) {
					pendingPreds[succ]--
					if pendingPreds[succ] == 0 {
						d.Ready(succ)
						avail++
					}
				}
			} else {
				res.Preemptions++
				d.Preempted(ev.id)
				avail++
			}
			// Newly ready or requeued work may unblock idle cores, and
			// this core itself is free again.
			wakeIdle(now)
			if remaining > 0 {
				events.Push(now, event{kind: evFree, core: ev.core})
			}

		case evFree:
			id, quantum, picked := d.Pick(ev.core, now)
			if !picked {
				idle[ev.core] = true
				idleCount++
				continue
			}
			avail--
			if prev, ran := lastCore[id]; ran {
				if prev == ev.core {
					res.AffineResumes++
				} else {
					res.Migrations++
				}
			}
			lastCore[id] = ev.core
			pc, exists := r.cursors[id]
			if !exists {
				return nil, fmt.Errorf("mpsoc: policy %s picked unknown process %v", d.Name(), id)
			}
			if pc.running {
				return nil, fmt.Errorf("mpsoc: policy %s picked in-flight process %v", d.Name(), id)
			}
			if pc.cur.Done() {
				return nil, fmt.Errorf("mpsoc: policy %s re-picked completed process %v", d.Name(), id)
			}
			// Cost inputs come from the dispatched core's machine-model
			// tables; bus contention scales the whole off-chip penalty,
			// hop term included.
			penalty := r.coreMissBase[ev.core]
			if cfg.BusFactor > 0 && busyCores > 0 {
				penalty = int64(float64(penalty) * (1 + cfg.BusFactor*float64(busyCores)))
			}
			busyCores++
			pc.running = true
			onCore[ev.core] = pc
			cycles, completed := r.segment(pc.cur, r.caches[ev.core], r.coreHitLat[ev.core], penalty, cfg.WritebackPenalty, quantum, r.blockScratch, r.writeScratch)
			st := &res.PerCore[ev.core]
			st.BusyCycles += cycles
			st.Segments++
			if cfg.RecordTimeline {
				res.Timeline = append(res.Timeline, Segment{
					Core: ev.core, Proc: id, Start: now, End: now + cycles, Completed: completed,
				})
			}
			events.Push(now+cycles, event{kind: evDone, core: ev.core, id: id, completed: completed})
		}
	}

	res.Cycles = makespan
	res.Seconds = cfg.Seconds(makespan)
	for i := range r.caches {
		res.PerCore[i].Cache = r.caches[i].Stats()
		res.Total.Add(res.PerCore[i].Cache)
		res.IdleCycles += makespan - res.PerCore[i].BusyCycles
	}
	return res, nil
}

// Run simulates the EPG under the dispatcher on the configured machine,
// with array addresses taken from the address map.
func Run(g *taskgraph.Graph, d Dispatcher, am layout.AddressMap, cfg Config) (*Result, error) {
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}
