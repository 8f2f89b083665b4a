package mpsoc

import (
	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/taskgraph"
	"locsched/internal/trace"
)

// replaySegment is the engine's per-access oracle: it walks the RLE
// cursor one access at a time in flat-stream order, checking the
// quantum before every access, exactly as the pre-RLE flat-stream engine
// did. runSegmentRLE must match it bit for bit: cycles, preemption
// point, cache state and stats.
func replaySegment(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64,
	_ []int64, _ []bool) (cycles int64, completed bool) {
	compute := cur.Spec().ComputePerIter
	for !cur.Done() {
		if quantum > 0 && cycles >= quantum {
			return cycles, false
		}
		acc, _ := cur.Next()
		if acc.NewIter {
			cycles += compute
		}
		class, wroteBack := c.AccessRW(acc.Addr, acc.Write)
		cycles += hitLat
		if class != cache.Hit {
			cycles += missPenalty
		}
		if wroteBack {
			cycles += wbPenalty
		}
	}
	return cycles, true
}

// newReplayRunner builds a Runner whose segments run on replaySegment.
func newReplayRunner(g *taskgraph.Graph, am layout.AddressMap, cfg Config) (*Runner, error) {
	r, err := NewRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	r.segment = replaySegment
	return r, nil
}

// runReplay is Run on the per-access oracle.
func runReplay(g *taskgraph.Graph, d Dispatcher, am layout.AddressMap, cfg Config) (*Result, error) {
	r, err := newReplayRunner(g, am, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(d)
}
