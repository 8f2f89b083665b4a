package mpsoc

import (
	"math/bits"

	"locsched/internal/cache"
	"locsched/internal/trace"
)

// runSegmentRLE executes the cursor on the cache until completion or
// quantum expiry (quantum 0 = no limit) and returns the consumed cycles,
// advancing run-by-run over the strided RLE encoding. Its contract is
// that of a per-access replay of the stream: before each access, stop
// if cycles ≥ quantum; otherwise charge ComputePerIter at an iteration's
// first access, then the hit latency or hit latency plus miss penalty,
// plus the writeback penalty on a dirty eviction. At least one access
// always executes, so preemptive policies make progress even with
// degenerate quanta, and a stream that ends exactly on the quantum
// boundary is a completion. The tests in this package hold it
// bit-identical to that replay: same cycles, same preemption point, same
// cache state and stats.
//
// The coalescing observation: within an RLE segment every reference
// advances by a constant per-iteration delta, so the blocks an iteration
// touches stay fixed until some reference crosses a block boundary. Each
// reference j keeps a crossing counter nextCross[j], the first iteration
// at which it leaves its current block, recomputed only when that
// iteration is reached (by shift and mask when the block size is a power
// of two). The minimum over the group ends the current block window.
// Inside a window a small state machine decides how the remaining
// iterations run, counting k, the full iterations it has simulated per
// access in this window during this call:
//
//   - After each simulated iteration, while k < 2 or the cache cannot
//     replay (FIFO, random), cache.TryAccessHitIters tries the rest of
//     the window as all-hits (hits evict nothing, so residency is
//     preserved inductively). Under LRU a refusal at k = 1 means the
//     group is thrashing, and it is not retried in this window.
//   - Once k reaches cache.RepeatWarmup (2 under write-through, 3 under
//     write-back), the cache state is at its LRU fixed point, and the
//     rest of the window repeats the last iteration's stats delta and
//     cycle cost exactly: cache.RepeatIters applies it in O(refs).
//   - Otherwise the next iteration runs per access.
//
// A partially replayed iteration (a process resumed mid-iteration,
// possibly on another core) does not count towards k. Quantum expiry
// can split a window: a bulk step is capped to the iterations whose
// every access still passes the pre-access cycles<quantum check — the
// binding one is the last access of the last iteration, at the bulk's
// cycles minus that access's cost — and the boundary iteration runs per
// access, so the preemption point lands exactly where the per-access
// replay puts it.
//
// blockScratch holds at least 2·refs and writeScratch at least refs
// entries of caller-owned scratch; Run passes the Runner's buffers.
func runSegmentRLE(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64, blockScratch []int64, writeScratch []bool) (cycles int64, completed bool) {
	return runWindows(cur, c, hitLat, missPenalty, wbPenalty, quantum, blockScratch, writeScratch, nil)
}

// runWindows is runSegmentRLE; tests pass perAccess to observe which
// iterations (segment, iteration) it simulates access by access.
func runWindows(cur *trace.RLECursor, c *cache.Cache, hitLat, missPenalty, wbPenalty, quantum int64,
	blockScratch []int64, writeScratch []bool, perAccess func(seg int, iter int64)) (cycles int64, completed bool) {
	compute := cur.Spec().ComputePerIter
	s := cur.Stream()
	nrefs := s.NRefs()
	flags := s.Flags()
	missCost := hitLat + missPenalty
	nsegs := s.NumSegs()
	// Cost of one fully-hitting iteration, for quantum capping.
	iterCost := compute + int64(nrefs)*hitLat
	warm := c.RepeatWarmup()

	bs := c.Geometry().BlockSize
	pow2 := bs&(bs-1) == 0
	mask, shift := bs-1, uint(bits.TrailingZeros64(uint64(bs)))

	blocks := blockScratch[:nrefs]
	nextCross := blockScratch[nrefs : 2*nrefs]
	writes := writeScratch[:nrefs]
	for j := 0; j < nrefs; j++ {
		writes[j] = flags[j]&trace.FlagWrite != 0
	}

	seg, iter, ref := cur.Pos()
	for seg < nsegs {
		starts, deltas, count := s.Seg(seg)
		// Window state: the group touches blocks[] on every iteration
		// before winEnd; k full iterations of it ran per access in this
		// call, the last costing lastIter cycles (lastAcc of them from its
		// final pre-access check on) and changing the stats by perIter.
		for j := range nextCross {
			nextCross[j] = iter
		}
		winEnd := iter
		var k int
		var lastIter, lastAcc int64
		var perIter cache.Stats
		for iter < count {
			if iter >= winEnd {
				winEnd = count
				for j := 0; j < nrefs; j++ {
					if nextCross[j] <= iter {
						a := starts[j] + iter*deltas[j]
						if pow2 {
							blocks[j], nextCross[j] = a>>shift, crossAt(iter, count, a&mask, bs, deltas[j])
						} else {
							blocks[j], nextCross[j] = a/bs, crossAt(iter, count, a%bs, bs, deltas[j])
						}
					}
					winEnd = min(winEnd, nextCross[j])
				}
				k = 0
			}

			// Simulate the current iteration per access. ref is nonzero only
			// when resuming a process preempted mid-iteration (possibly on a
			// different core).
			full := ref == 0
			if perAccess != nil {
				perAccess(seg, iter)
			}
			// Only the iteration that completes the warm-up needs its delta.
			record := full && warm > 0 && k+1 >= warm
			var startCycles int64
			var startStats cache.Stats
			if record {
				startCycles, startStats = cycles, c.Stats()
			}
			var cost int64
			for ; ref < nrefs; ref++ {
				if quantum > 0 && cycles >= quantum {
					cur.Seek(seg, iter, ref)
					return cycles, false
				}
				f := flags[ref]
				cost = 0
				if f&trace.FlagNewIter != 0 {
					cost = compute
				}
				class, wroteBack := c.AccessRW(starts[ref]+iter*deltas[ref], f&trace.FlagWrite != 0)
				if class == cache.Hit {
					cost += hitLat
				} else {
					cost += missCost
				}
				if wroteBack {
					cost += wbPenalty
				}
				cycles += cost
			}
			ref = 0
			iter++
			if full {
				k++
			}
			if record {
				lastIter, lastAcc = cycles-startCycles, cost
				perIter = c.Stats().Sub(startStats)
			}

			span := winEnd - iter
			if span <= 0 {
				continue
			}
			if nrefs == 1 {
				// Single-reference segment: the run is same-block with the
				// access just simulated, which is also the cache's most
				// recent access, so AccessRun resolves it in O(1) with a
				// guaranteed-hit prefix — no residency probe needed.
				if n := capQuantum(span, quantum, cycles, iterCost, hitLat); n > 0 {
					c.AccessRun(starts[0]+iter*deltas[0], n, writes[0])
					cycles += n * iterCost
					iter += n
				}
				continue
			}
			if warm == 0 || k < 2 {
				// A refusal leaves the cache alone. Under LRU, a group refused
				// after one full iteration stays refused to the window's end.
				if n := capQuantum(span, quantum, cycles, iterCost, hitLat); n > 0 && c.TryAccessHitIters(blocks, writes, n) {
					cycles += n * iterCost
					iter += n
					continue
				}
			}
			if warm > 0 && k >= warm {
				if n := capQuantum(span, quantum, cycles, lastIter, lastAcc); n > 0 && c.RepeatIters(blocks, perIter, n) {
					cycles += n * lastIter
					iter += n
				}
			}
		}
		seg++
		iter = 0
	}
	cur.Seek(seg, 0, 0)
	return cycles, true
}

// crossAt returns the first iteration after iter at which a reference
// with per-iteration delta d leaves the block it touches at iter, where
// off is that access's offset inside its block of size bs; count when it
// stays in the block to the end of the segment.
func crossAt(iter, count, off, bs, d int64) int64 {
	var left int64
	switch {
	case d > 0:
		left = (bs - 1 - off) / d
	case d < 0:
		left = off / -d
	default:
		return count
	}
	return min(iter+1+left, count)
}

// capQuantum caps a bulk step of span iterations, each costing iterCost
// cycles with lastAcc of them charged from its final access's pre-access
// check on, to the largest k whose last access still passes that check:
// cycles + k·iterCost − lastAcc < quantum. Quantum 0 means no cap.
func capQuantum(span, quantum, cycles, iterCost, lastAcc int64) int64 {
	if quantum > 0 {
		span = min(span, (quantum-cycles+lastAcc-1)/iterCost)
	}
	return span
}
