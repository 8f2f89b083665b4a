package sharing

import (
	"runtime"
	"sync"
	"sync/atomic"

	"locsched/internal/eset"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// The blocked, parallel sharing-matrix construction. The direct
// construction is O(P²) pairwise run-merges over the full data spaces;
// at the 512–1024-core scenario scale (P in the thousands) that is an
// analysis wall. This construction makes three changes, all
// value-preserving:
//
//   - data spaces are computed concurrently (one task per process) on a
//     bounded worker pool against the shared, lock-protected Analyzer,
//     which deduplicates content-equal element sets;
//   - every process's data space is summarized once into a footprint
//     slice — per referenced array, the bounding interval of its element
//     set (eset.Set.Bounds) — sorted by a dense array index, so a pair's
//     shared bytes is a linear merge-join that rejects disjoint arrays
//     and non-overlapping intervals in O(1) instead of a map-probe plus
//     run-merge per array (generated XL mixes share nothing across
//     tasks, so almost every pair exits at the summary level);
//   - the P×P pair space is tiled into matrixTile-wide blocks and the
//     upper-triangle tiles fan out over the worker pool; each unordered
//     pair (i, j) belongs to exactly one tile, so tile workers write
//     disjoint matrix cells and need no synchronization.
//
// Every cell is an exact int64 sum over the same intersections the
// direct construction computes, so the result is bit-identical for any
// worker count — the differential tests pin MatrixParallel against the
// direct construction over ComputeDataSpace for the Table 1 apps and
// generated XL mixes.

// matrixTile is the tile edge of the blocked pair sweep. 128 keeps a
// tile's summaries resident while being fine-grained enough to balance
// tiles whose pairs all exit early against tiles doing real merges.
const matrixTile = 128

// footprint is one process's per-array summary: the arrays it touches
// with their interval bounds and element sets, sorted by dense array
// index for merge-joining.
type footprint struct {
	ents []footEnt
	self int64 // diagonal: footprint bytes
	loAi int   // smallest dense array index (valid when len(ents) > 0)
	hiAi int   // largest dense array index
}

// footEnt is one array of a footprint summary.
type footEnt struct {
	ai   int   // dense array index (assignment order: first use across processes)
	elem int64 // element size in bytes
	lo   int64 // bounding interval [lo, hi) of the element set
	hi   int64
	set  *eset.Set
}

// sharedBytes merge-joins two summaries: sum over common arrays of
// |set ∩ set'| × element size, skipping pairs whose bounding intervals
// are disjoint. Identical to DataSpace.SharedBytes by construction.
func sharedBytes(a, b *footprint) int64 {
	if len(a.ents) == 0 || len(b.ents) == 0 || a.hiAi < b.loAi || b.hiAi < a.loAi {
		return 0
	}
	var n int64
	i, j := 0, 0
	for i < len(a.ents) && j < len(b.ents) {
		ea, eb := &a.ents[i], &b.ents[j]
		switch {
		case ea.ai < eb.ai:
			i++
		case ea.ai > eb.ai:
			j++
		default:
			if ea.lo < eb.hi && eb.lo < ea.hi {
				n += ea.set.IntersectCard(eb.set) * ea.elem
			}
			i++
			j++
		}
	}
	return n
}

// ComputeMatrixParallel builds the sharing matrix with the blocked,
// parallel construction. workers ≤ 0 uses GOMAXPROCS; workers == 1 runs
// the blocked path inline (ComputeMatrix). The result is bit-identical
// for every worker count.
func ComputeMatrixParallel(g *taskgraph.Graph, workers int) (*Matrix, error) {
	return NewAnalyzer().MatrixParallel(g, workers)
}

// MatrixParallel builds the sharing matrix of Figure 2(a) with the
// blocked, parallel construction, reusing the analyzer's memoized data
// spaces.
func (a *Analyzer) MatrixParallel(g *taskgraph.Graph, workers int) (*Matrix, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ids := g.ProcIDs()
	n := len(ids)
	m := &Matrix{
		ids:  ids,
		pos:  make(map[taskgraph.ProcID]int, n),
		vals: make([][]int64, n),
	}
	for i, id := range ids {
		m.pos[id] = i
		m.vals[i] = make([]int64, n)
	}

	// Phase 1: data spaces, one task per process on the pool.
	spaces := make([]DataSpace, n)
	if err := fanOut(workers, n, func(i int) error {
		ds, err := a.DataSpace(g.Process(ids[i]).Spec)
		if err != nil {
			return err
		}
		spaces[i] = ds
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: footprint summaries. Dense array indices are assigned
	// sequentially at first use across processes in ID order; only the
	// join order depends on them, not any matrix value.
	arrIdx := make(map[*prog.Array]int)
	sums := make([]*footprint, n)
	for i, id := range ids {
		sums[i] = summarize(g.Process(id).Spec, spaces[i], arrIdx)
		m.vals[i][i] = sums[i].self
	}

	// Phase 3: tiled upper-triangle pair sweep.
	nt := (n + matrixTile - 1) / matrixTile
	type tile struct{ bi, bj int }
	tiles := make([]tile, 0, nt*(nt+1)/2)
	for bi := 0; bi < nt; bi++ {
		for bj := bi; bj < nt; bj++ {
			tiles = append(tiles, tile{bi, bj})
		}
	}
	_ = fanOut(workers, len(tiles), func(t int) error {
		bi, bj := tiles[t].bi, tiles[t].bj
		iHi := min((bi+1)*matrixTile, n)
		jHi := min((bj+1)*matrixTile, n)
		for i := bi * matrixTile; i < iHi; i++ {
			jLo := bj * matrixTile
			if bi == bj {
				jLo = i + 1
			}
			for j := jLo; j < jHi; j++ {
				s := sharedBytes(sums[i], sums[j])
				m.vals[i][j] = s
				m.vals[j][i] = s
			}
		}
		return nil
	})
	return m, nil
}

// summarize flattens one data space into a footprint summary, assigning
// dense indices to newly seen arrays. Iterating spec.Arrays() (first-use
// order) keeps the assignment deterministic even though ds is a map.
func summarize(spec *prog.ProcessSpec, ds DataSpace, arrIdx map[*prog.Array]int) *footprint {
	f := &footprint{self: ds.FootprintBytes()}
	for _, arr := range spec.Arrays() {
		s, ok := ds[arr]
		if !ok {
			continue
		}
		b, ok := s.Bounds()
		if !ok {
			continue
		}
		ai, ok := arrIdx[arr]
		if !ok {
			ai = len(arrIdx)
			arrIdx[arr] = ai
		}
		f.ents = append(f.ents, footEnt{ai: ai, elem: arr.Elem, lo: b.Lo, hi: b.Hi, set: s})
	}
	// Entries were appended in first-use order; sort by dense index so
	// pairs merge-join. Summaries are tiny (a handful of arrays).
	for i := 1; i < len(f.ents); i++ {
		for j := i; j > 0 && f.ents[j].ai < f.ents[j-1].ai; j-- {
			f.ents[j], f.ents[j-1] = f.ents[j-1], f.ents[j]
		}
	}
	if len(f.ents) > 0 {
		f.loAi = f.ents[0].ai
		f.hiAi = f.ents[len(f.ents)-1].ai
	}
	return f
}

// fanOut runs fn(0..n-1) on up to `workers` goroutines (inline when the
// pool would be trivial) and returns the first error in task order.
func fanOut(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
