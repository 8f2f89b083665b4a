package experiment

// This file holds the large-scale evaluation scenarios. The paper stops
// at 8 cores and six concurrent tasks; the compiled-trace engine makes
// much bigger settings cheap, so this adds the XL layer the ROADMAP
// calls for: generated multi-program mixes on 32–1024-core machines
// (Figure7XL over DefaultXLPoints or an XLLadder extension) and a dense
// cache-geometry × miss-penalty grid over the full Table 1 mix
// (SweepXL). Both fan cells out on the Config.Workers pool with results
// independent of the worker count. The 512/1024-core points are what the blocked
// parallel sharing matrix and the incremental LocalitySchedule were
// built for: at those scales the scheduling analysis, not the cache
// simulation, used to dominate cell setup.

import (
	"fmt"

	"locsched/internal/workload"
)

// XLPoint is one machine/workload scale of the large-scale evaluation:
// a core count and the number of concurrent tasks generated for it.
type XLPoint struct {
	Cores int
	Tasks int
}

func (p XLPoint) String() string { return fmt.Sprintf("%dc/|T|=%d", p.Cores, p.Tasks) }

// DefaultXLPoints returns the standard large-scale scenario ladder:
// 32, 64, and 128 cores with proportionally growing multi-program mixes
// (tasks = cores/4, i.e. up to ~600 processes at the top point).
func DefaultXLPoints() []XLPoint {
	return []XLPoint{{Cores: 32, Tasks: 8}, {Cores: 64, Tasks: 16}, {Cores: 128, Tasks: 32}}
}

// XLLadder returns the doubling scenario ladder 32, 64, …, maxCores with
// proportionally growing generated mixes (tasks = cores/4): the
// 256/512/1024-core extension of DefaultXLPoints (XLLadder(1024) tops
// out at a 256-task mix, ~5000 processes). maxCores below 32 is
// rejected; a maxCores between rungs stops at the last doubled rung.
func XLLadder(maxCores int) ([]XLPoint, error) {
	if maxCores < 32 {
		return nil, fmt.Errorf("experiment: XL ladder max %d must be at least 32 cores", maxCores)
	}
	var pts []XLPoint
	for c := 32; c <= maxCores; c *= 2 {
		pts = append(pts, XLPoint{Cores: c, Tasks: c / 4})
	}
	return pts, nil
}

// Figure7XL scales the paper's Figure 7 to large machines: each point
// runs a generated |T|-task mix (workload.BuildMany) on a machine with
// the point's core count under every policy. Cells run concurrently on
// the Config.Workers pool.
func Figure7XL(cfg Config, points []XLPoint, policies []Policy) (*Table, error) {
	if len(points) == 0 {
		points = DefaultXLPoints()
	}
	if len(policies) == 0 {
		policies = Policies()
	}
	perPoint := make([][]*workload.App, len(points))
	cfgs := make([]Config, len(points))
	labels := make([]string, len(points))
	for i, pt := range points {
		if pt.Cores <= 0 || pt.Tasks <= 0 {
			return nil, fmt.Errorf("experiment: XL point %+v: cores and tasks must be positive", pt)
		}
		apps, err := workload.BuildMany(pt.Tasks, cfg.Workload)
		if err != nil {
			return nil, err
		}
		perPoint[i] = apps
		c := cfg
		c.Machine.Cores = pt.Cores
		cfgs[i] = c
		labels[i] = pt.String()
	}
	t := &Table{Title: "Figure 7-XL: execution times, large-scale concurrent mixes", Policies: policies}
	rows, err := runGrid(cfg.Workers, len(points), policies, func(row int, p Policy) (*RunResult, error) {
		r, err := RunMix(perPoint[row], p, cfgs[row])
		if err != nil {
			return nil, fmt.Errorf("figure 7-XL, %s/%s: %w", labels[row], p, err)
		}
		r.Workload = labels[row]
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		t.Rows = append(t.Rows, Row{Label: label, Results: rows[i]})
	}
	return t, nil
}

// SweepXL runs the dense parameter grid behind the paper's "savings are
// consistent" claim at scale: the full six-application mix under every
// (cache size × associativity × miss penalty) combination. Points are
// ordered size-major, then associativity, then penalty. Invalid
// geometries (size not divisible by block × ways) are rejected up front.
func SweepXL(cfg Config, sizes []int64, assocs []int, penalties []int64, policies []Policy) (*Sweep, error) {
	if len(sizes) == 0 || len(assocs) == 0 || len(penalties) == 0 {
		return nil, fmt.Errorf("experiment: SweepXL needs at least one size, associativity, and penalty")
	}
	if len(policies) == 0 {
		policies = Policies()
	}
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		return nil, err
	}
	var cfgs []Config
	var labels []string
	for _, sz := range sizes {
		for _, w := range assocs {
			for _, p := range penalties {
				c := cfg
				c.Machine.Cache.Size = sz
				c.Machine.Cache.Assoc = w
				c.Machine.MissPenalty = p
				if err := c.Machine.Cache.Validate(); err != nil {
					return nil, fmt.Errorf("experiment: SweepXL point %dKB/%d-way: %w", sz/1024, w, err)
				}
				cfgs = append(cfgs, c)
				labels = append(labels, fmt.Sprintf("%dKB/%dw/m%d", sz/1024, w, p))
			}
		}
	}
	points, err := runGrid(cfg.Workers, len(cfgs), policies, func(pt int, p Policy) (*RunResult, error) {
		r, err := RunMix(apps, p, cfgs[pt])
		if err != nil {
			return nil, fmt.Errorf("XL sweep, %s/%s: %w", labels[pt], p, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	s := &Sweep{Title: fmt.Sprintf("XL grid sweep (%d points: size × assoc × miss penalty)", len(cfgs))}
	for i, label := range labels {
		s.Points = append(s.Points, SweepPoint{Label: label, Results: points[i]})
	}
	return s, nil
}
