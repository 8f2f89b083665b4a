package main

import (
	"fmt"
	"runtime"
	"strings"

	"locsched/internal/cache"
	"locsched/internal/experiment"
	"locsched/internal/layout"
	"locsched/internal/mpsoc"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// cell is one simulation of a figure or sweep: a workload under one
// policy on one machine. A mix cell merges its applications into one
// concurrent EPG (experiment.RunMix); otherwise the single application
// runs in isolation (experiment.RunApp).
type cell struct {
	row    string
	policy experiment.Policy
	apps   []*workload.App
	mix    bool
	cfg    experiment.Config
}

// outcome is the simulated result of one cell: every count the
// benchmark checks for exact repetition across passes.
type outcome struct {
	Cycles        int64 `json:"cycles"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Conflicts     int64 `json:"conflicts"`
	Preemptions   int64 `json:"preemptions"`
	AffineResumes int64 `json:"affine_resumes"`
	Migrations    int64 `json:"migrations"`
	Relaid        int   `json:"relaid"`
}

func outcomeOf(r *experiment.RunResult) outcome {
	return outcome{
		Cycles: r.Cycles, Hits: r.Hits, Misses: r.Misses, Conflicts: r.Conflicts,
		Preemptions: r.Preemptions, AffineResumes: r.AffineResumes,
		Migrations: r.Migrations, Relaid: r.Relaid,
	}
}

// runCell runs a cell through the experiment layer: the untraced path
// that end-to-end metrics are measured on.
func runCell(c cell) (outcome, error) {
	var r *experiment.RunResult
	var err error
	if c.mix {
		r, err = experiment.RunMix(c.apps, c.policy, c.cfg)
	} else {
		r, err = experiment.RunApp(c.apps[0], c.policy, c.cfg)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s/%s: %w", c.row, c.policy, err)
	}
	return outcomeOf(r), nil
}

// Span names of the traced pipeline, one per layer call. selfTimes
// aggregates by these names; metrics name them with an "_s" suffix.
const (
	spanPass        = "bench.pass"
	spanCalibrate   = "bench.calibrate"
	spanCell        = "experiment.cell"
	spanBuild       = "workload.build"
	spanFingerprint = "taskgraph.fingerprint"
	spanPack        = "layout.pack"
	spanMatrix      = "sharing.matrix"
	spanLS          = "sched.ls"
	spanLSM         = "sched.lsm"
	spanRunner      = "mpsoc.runner_build"
	spanSimulate    = "mpsoc.simulate"
)

// family is one canonical (graph, arrays) workload with its packed base
// layout: the benchmark's copy of the experiment layer's intern table.
type family struct {
	g      *taskgraph.Graph
	arrays []*prog.Array
	base   *layout.Packed
}

type coresKey struct {
	f     *family
	cores int
}

type lsmKey struct {
	f     *family
	cores int
	geom  cache.Geometry
}

type runnerKey struct {
	f   *family
	am  layout.AddressMap
	cfg mpsoc.Config
}

// pipeline is the traced path: it performs experiment.RunGraph's steps
// itself, one public layer call at a time, with a span around each, and
// memoizes exactly what the experiment layer memoizes (merged mixes,
// canonical workloads, base layouts, sharing matrices, LS assignments,
// LSM mappings, and built runners), so a traced pass does the same
// layer work as an untraced one and must produce the same outcomes.
// Homogeneous machines only: no core bias.
type pipeline struct {
	tr      *tracer
	workers int

	mixes    map[string]*family
	families map[string]*family
	matrices map[*family]*sharing.Matrix
	ls       map[coresKey]*sched.Assignment
	lsm      map[lsmKey]*sched.MappingResult
	runners  map[runnerKey]*mpsoc.Runner

	// Deterministic layer counts: the summed static thrash pressure of
	// the base and final layouts over every LSM mapping computed.
	pressureBefore, pressureAfter int64
}

func newPipeline(tr *tracer) *pipeline {
	return &pipeline{
		tr:       tr,
		workers:  runtime.GOMAXPROCS(0),
		mixes:    make(map[string]*family),
		families: make(map[string]*family),
		matrices: make(map[*family]*sharing.Matrix),
		ls:       make(map[coresKey]*sched.Assignment),
		lsm:      make(map[lsmKey]*sched.MappingResult),
		runners:  make(map[runnerKey]*mpsoc.Runner),
	}
}

// build runs workload.Build inside a span.
func (p *pipeline) build(names []string, params workload.Params, parent int) ([]*workload.App, error) {
	var apps []*workload.App
	err := p.tr.do(spanBuild, parent, func() error {
		var err error
		apps, err = buildMix(names, params)
		return err
	})
	return apps, err
}

// workloadOf returns the canonical family of a cell's workload, merging
// mixes (memoized per application set, like experiment.RunMix) and
// interning by content (like the experiment layer's intern table).
func (p *pipeline) workloadOf(c cell, parent int) (*family, error) {
	g, arrays := c.apps[0].Graph, c.apps[0].Arrays
	if c.mix {
		var key strings.Builder
		for _, a := range c.apps {
			fmt.Fprintf(&key, "%p;", a)
		}
		if f, ok := p.mixes[key.String()]; ok {
			g, arrays = f.g, f.arrays
		} else {
			err := p.tr.do(spanBuild, parent, func() error {
				var err error
				g, arrays, err = workload.Combine(c.apps...)
				return err
			})
			if err != nil {
				return nil, err
			}
			p.mixes[key.String()] = &family{g: g, arrays: arrays}
		}
	}
	var fp string
	p.tr.do(spanFingerprint, parent, func() error {
		fp = g.Fingerprint()
		return nil
	})
	var key strings.Builder
	key.WriteString(fp)
	for _, arr := range arrays {
		fmt.Fprintf(&key, "|%s/%v/%d", arr.Name, arr.Dims, arr.Elem)
	}
	if f, ok := p.families[key.String()]; ok {
		return f, nil
	}
	f := &family{g: g, arrays: arrays}
	err := p.tr.do(spanPack, parent, func() error {
		var err error
		f.base, err = layout.Pack(c.cfg.Align, arrays...)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.families[key.String()] = f
	return f, nil
}

// assignment returns the (memoized) LS assignment of f on cores.
func (p *pipeline) assignment(f *family, cores, parent int) (*sched.Assignment, error) {
	if asg, ok := p.ls[coresKey{f, cores}]; ok {
		return asg, nil
	}
	m, ok := p.matrices[f]
	if !ok {
		err := p.tr.do(spanMatrix, parent, func() error {
			var err error
			m, err = sharing.ComputeMatrixParallel(f.g, p.workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		p.matrices[f] = m
	}
	var asg *sched.Assignment
	err := p.tr.do(spanLS, parent, func() error {
		var err error
		asg, err = sched.LocalityScheduleBiased(f.g, m, cores, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.ls[coresKey{f, cores}] = asg
	return asg, nil
}

// run simulates one cell inside an experiment.cell span under parent.
func (p *pipeline) run(c cell, parent int) (outcome, error) {
	id := p.tr.start(spanCell, parent)
	defer p.tr.end(id)
	out, err := p.runIn(c, id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s/%s (traced): %w", c.row, c.policy, err)
	}
	return out, nil
}

func (p *pipeline) runIn(c cell, parent int) (outcome, error) {
	if err := c.cfg.Validate(); err != nil {
		return outcome{}, err
	}
	f, err := p.workloadOf(c, parent)
	if err != nil {
		return outcome{}, err
	}
	cores := c.cfg.Machine.Cores
	var am layout.AddressMap = f.base
	var disp mpsoc.Dispatcher
	relaid := 0
	switch c.policy {
	case experiment.RS:
		disp = sched.NewRandom(c.cfg.Seed)
	case experiment.RRS:
		if disp, err = sched.NewRoundRobin(c.cfg.Quantum); err != nil {
			return outcome{}, err
		}
	case experiment.ARR:
		d, err := sched.NewAffinityRR(sched.AffinityConfig{
			Quantum: c.cfg.Quantum, Window: c.cfg.Affinity,
			QBatch: c.cfg.QBatch, Decay: c.cfg.AffinityDecay,
		})
		if err != nil {
			return outcome{}, err
		}
		d.SetCoreBias(cores, nil)
		disp = d
	case experiment.LS:
		asg, err := p.assignment(f, cores, parent)
		if err != nil {
			return outcome{}, err
		}
		disp = sched.NewStatic("LS", asg)
	case experiment.LSM:
		k := lsmKey{f, cores, c.cfg.Machine.Cache}
		mapping, ok := p.lsm[k]
		if !ok {
			asg, err := p.assignment(f, cores, parent)
			if err != nil {
				return outcome{}, err
			}
			err = p.tr.do(spanLSM, parent, func() error {
				var err error
				_, mapping, err = sched.NewLSM(f.g, nil, asg, cores, f.base, c.cfg.Machine.Cache, nil)
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			p.lsm[k] = mapping
			p.pressureBefore += mapping.PressureBefore
			p.pressureAfter += mapping.PressureAfter
		}
		disp = sched.NewStatic("LSM", mapping.Assignment)
		am = mapping.Layout
		relaid = len(mapping.Banks)
	default:
		return outcome{}, fmt.Errorf("policy %s is not traced", c.policy)
	}
	rk := runnerKey{f, am, c.cfg.Machine}
	runner, ok := p.runners[rk]
	if !ok {
		err := p.tr.do(spanRunner, parent, func() error {
			var err error
			runner, err = mpsoc.NewRunner(f.g, am, c.cfg.Machine)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		p.runners[rk] = runner
	}
	var res *mpsoc.Result
	err = p.tr.do(spanSimulate, parent, func() error {
		var err error
		res, err = runner.RunParallel(disp, 0)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Cycles: res.Cycles, Hits: res.Total.Hits, Misses: res.Total.Misses(),
		Conflicts: res.Total.Conflict, Preemptions: res.Preemptions,
		AffineResumes: res.AffineResumes, Migrations: res.Migrations, Relaid: relaid,
	}, nil
}
