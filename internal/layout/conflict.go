package layout

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// Footprints maps each array to the set of linear element indices
// actually touched (from sharing.DataSpace computations).
type Footprints map[*prog.Array]*eset.Set

// Merge unions o into a copy of f.
func (f Footprints) Merge(o Footprints) Footprints {
	out := make(Footprints, len(f)+len(o))
	for a, s := range f {
		out[a] = s
	}
	for a, s := range o {
		if cur, ok := out[a]; ok {
			out[a] = cur.Union(s)
		} else {
			out[a] = s
		}
	}
	return out
}

// ConflictMatrix estimates, for every pair of arrays, how severely they
// fight over cache sets under a given layout (the paper's "conflict
// matrix" M of Figure 5).
//
// The matrix is built from co-access groups: the arrays touched by one
// process, or by two processes scheduled successively on the same core —
// exactly the pairs Figure 5 declares eligible for re-layouting. Within
// a group, for each cache set s let n_i[s] be the number of distinct
// blocks of array i's footprint mapping to s. A set is a thrash point
// when the group's combined residency exceeds the associativity
// (Σ n_i[s] > W): every array pair present there then accumulates
// min(n_i[s], n_j[s]). Pairs never co-accessed stay at zero, so the
// eligibility test of Figure 5 is implicit in the matrix.
type ConflictMatrix struct {
	arrays []*prog.Array
	pos    map[*prog.Array]int
	vals   [][]int64
}

// Conflicts builds the conflict matrix from co-access groups under the
// address map and cache geometry. The map must place every array with
// an AddrFormula, as Packed and Relayouted do.
func Conflicts(groups []Footprints, am AddressMap, geom cache.Geometry) (*ConflictMatrix, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	// Collect the universe of arrays (deterministic order by name).
	universe := make(map[*prog.Array]bool)
	for _, g := range groups {
		for a := range g {
			universe[a] = true
		}
	}
	arrays := make([]*prog.Array, 0, len(universe))
	for a := range universe {
		arrays = append(arrays, a)
	}
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Name < arrays[j].Name })

	m := &ConflictMatrix{
		arrays: arrays,
		pos:    make(map[*prog.Array]int, len(arrays)),
		vals:   make([][]int64, len(arrays)),
	}
	for i, a := range arrays {
		m.pos[a] = i
		m.vals[i] = make([]int64, len(arrays))
	}

	formulas, err := compileAll(am, arrays)
	if err != nil {
		return nil, err
	}

	numSets := geom.NumSets()
	w := int64(geom.Assoc)
	// Groups share data-space sets, so per-set block counts are memoized.
	depths := newDepthMemo(geom)
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		members := make([]*prog.Array, 0, len(g))
		for a := range g {
			members = append(members, a)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
		perArr := make([][]int64, len(members))
		for i, a := range members {
			perArr[i] = depths.of(g[a], formulas[m.pos[a]])
		}
		for s := int64(0); s < numSets; s++ {
			var total int64
			for i := range members {
				total += perArr[i][s]
			}
			if total <= w {
				continue
			}
			for i := range members {
				ni := perArr[i][s]
				if ni == 0 {
					continue
				}
				for j := i + 1; j < len(members); j++ {
					nj := perArr[j][s]
					if nj == 0 {
						continue
					}
					mi, mj := m.pos[members[i]], m.pos[members[j]]
					c := ni
					if nj < ni {
						c = nj
					}
					m.vals[mi][mj] += c
					m.vals[mj][mi] += c
				}
			}
		}
	}
	return m, nil
}

// Arrays returns the matrix's arrays in order.
func (m *ConflictMatrix) Arrays() []*prog.Array {
	return append([]*prog.Array(nil), m.arrays...)
}

// Conflict returns the conflict weight between two arrays (0 if unknown).
func (m *ConflictMatrix) Conflict(a, b *prog.Array) int64 {
	i, ok := m.pos[a]
	if !ok {
		return 0
	}
	j, ok := m.pos[b]
	if !ok {
		return 0
	}
	return m.vals[i][j]
}

// AverageThreshold returns the paper's default threshold T: the average
// conflict weight across array pairs. The matrix is sparse (most pairs
// are never co-accessed), so the average is taken over pairs with
// non-zero weight; including the zeros would drive T to 0 and invite
// re-layouting of statistically insignificant conflicts. Returns 0 when
// no pair conflicts.
func (m *ConflictMatrix) AverageThreshold() int64 {
	n := len(m.arrays)
	var sum, pairs int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.vals[i][j] > 0 {
				sum += m.vals[i][j]
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / pairs
}

// Total returns the sum of all pairwise conflict weights, used to verify
// that a candidate re-layout actually reduces conflicts.
func (m *ConflictMatrix) Total() int64 {
	var sum int64
	for i := range m.arrays {
		for j := i + 1; j < len(m.arrays); j++ {
			sum += m.vals[i][j]
		}
	}
	return sum
}

func (m *ConflictMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, a := range m.arrays {
		fmt.Fprintf(&b, "%14s", a.Name)
	}
	b.WriteByte('\n')
	for i, a := range m.arrays {
		fmt.Fprintf(&b, "%-10s", a.Name)
		for j := range m.arrays {
			fmt.Fprintf(&b, "%14d", m.vals[i][j])
		}
		if i < len(m.arrays)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// compileAll resolves the address formula of every array under am. The
// depth computations below need closed-form, strictly increasing
// addressing, so an array absent from am, or a map without formulas, is
// an error.
func compileAll(am AddressMap, arrays []*prog.Array) ([]AddrFormula, error) {
	ac, ok := am.(AddrCompiler)
	if !ok {
		return nil, fmt.Errorf("layout: address map %T has no per-array formulas", am)
	}
	known := make(map[*prog.Array]bool)
	for _, a := range am.Arrays() {
		known[a] = true
	}
	out := make([]AddrFormula, len(arrays))
	for i, a := range arrays {
		if !known[a] {
			return nil, fmt.Errorf("layout: array %s not present in base layout", a.Name)
		}
		f, ok := ac.CompileAddr(a)
		if !ok {
			return nil, fmt.Errorf("layout: array %s has no address formula", a.Name)
		}
		out[i] = f
	}
	return out, nil
}

// setDepths counts, for every cache set, the distinct blocks of a
// footprint placed by f that map to the set: the footprint's depth per
// set. Both formula kinds give addresses that strictly increase with the
// linear index, and Elements yields indices in ascending order, so the
// blocks an element spans never precede the last block already counted;
// remembering that one block deduplicates exactly.
func setDepths(fp *eset.Set, f AddrFormula, geom cache.Geometry) []int64 {
	numSets := geom.NumSets()
	depth := make([]int64, numSets)
	last := int64(math.MinInt64)
	fp.Elements(func(e int64) bool {
		addr := f.Addr(e)
		first := geom.BlockOf(addr)
		end := geom.BlockOf(addr + f.Elem - 1)
		if first <= last {
			first = last + 1
		}
		for blk := first; blk <= end; blk++ {
			depth[blk%numSets]++
		}
		last = end
		return true
	})
	return depth
}

// depthMemo memoizes setDepths by footprint and placement. The formula's
// base is reduced modulo the cache page size: a page spans every set
// exactly once (PageSize = NumSets × BlockSize), so moving a region by
// whole pages — which is all a later re-layout does to an earlier
// re-laid array, whose region always starts on a page boundary — leaves
// its depths unchanged.
type depthMemo struct {
	geom cache.Geometry
	page int64
	m    map[depthKey][]int64
}

type depthKey struct {
	fp *eset.Set
	f  AddrFormula
}

func newDepthMemo(geom cache.Geometry) *depthMemo {
	return &depthMemo{geom: geom, page: geom.PageSize(), m: make(map[depthKey][]int64)}
}

func (d *depthMemo) of(fp *eset.Set, f AddrFormula) []int64 {
	f.Base = (f.Base%d.page + d.page) % d.page
	k := depthKey{fp, f}
	if v, ok := d.m[k]; ok {
		return v
	}
	v := setDepths(fp, f, d.geom)
	d.m[k] = v
	return v
}

// VerifyGroup describes one process for pressure verification: the
// per-array union footprints plus how many references the process issues
// to each array (the number of concurrent access streams).
type VerifyGroup struct {
	FP   Footprints
	Refs map[*prog.Array]int
}

// Pressure, the quantity SelectRelayoutVerified minimizes, measures the
// static lockstep-thrash potential of a layout. For every process and
// cache set, the number of simultaneously live blocks is estimated as
// Σ_arrays min(refs to the array, the array's footprint depth in the
// set): each reference is a stream contributing one live block, and a
// single stream walking a deep array revisits a set only after a full
// stride (no thrash on its own). Pressure is the excess of that live
// estimate over the associativity, summed. Several bands of one array
// squeezed into the same sets by a re-layout are visible here whenever
// several references walk them in lockstep — the damage mode the
// pairwise matrix cannot see.
//
// pressure keeps that sum incrementally: per group the live vector and
// its excess, and per re-layout candidate array the groups it appears
// in, so scoring a bank change touches only those groups.
type pressure struct {
	w       int64
	depths  *depthMemo
	live    [][]int64     // per group, per set
	excess  []int64       // per group
	total   int64         // Σ excess
	place   []AddrFormula // current placement per candidate array
	members [][]member    // per candidate array, its groups
	seen    []int         // per group, the stamp of the last scoring that touched it
	stamp   int
	scratch []int64 // a trial live vector
}

// member is one candidate array's footprint and stream count in one
// verify group.
type member struct {
	group   int
	fp      *eset.Set
	streams int64
}

// move is one candidate array's new placement.
type move struct {
	arr int
	f   AddrFormula
}

// newPressure computes the pressure of groups under base, tracking the
// given candidate arrays for later moves.
func newPressure(groups []VerifyGroup, candidates []*prog.Array, base AddressMap, geom cache.Geometry) (*pressure, error) {
	// Every array the groups reference starts at its base placement;
	// only the candidates (the first len(candidates) entries) move.
	arrays := append([]*prog.Array(nil), candidates...)
	idx := make(map[*prog.Array]int, len(candidates))
	for i, a := range candidates {
		idx[a] = i
	}
	for _, g := range groups {
		for a := range g.FP {
			if _, ok := idx[a]; !ok {
				idx[a] = len(arrays)
				arrays = append(arrays, a)
			}
		}
	}
	place, err := compileAll(base, arrays)
	if err != nil {
		return nil, err
	}

	p := &pressure{
		w:       int64(geom.Assoc),
		depths:  newDepthMemo(geom),
		live:    make([][]int64, len(groups)),
		excess:  make([]int64, len(groups)),
		place:   place[:len(candidates)],
		members: make([][]member, len(candidates)),
		seen:    make([]int, len(groups)),
		scratch: make([]int64, geom.NumSets()),
	}
	for gi, g := range groups {
		live := make([]int64, geom.NumSets())
		for a, fp := range g.FP {
			streams := int64(g.Refs[a])
			if streams <= 0 {
				streams = 1
			}
			i := idx[a]
			addMin(live, p.depths.of(fp, place[i]), streams, 1)
			if i < len(candidates) {
				p.members[i] = append(p.members[i], member{group: gi, fp: fp, streams: streams})
			}
		}
		p.live[gi] = live
		p.excess[gi] = p.excessOf(live)
		p.total += p.excess[gi]
	}
	return p, nil
}

// addMin adds sign × min(streams, depth[s]) to live[s] for every set.
func addMin(live, depth []int64, streams, sign int64) {
	for s, d := range depth {
		if d > streams {
			d = streams
		}
		live[s] += sign * d
	}
}

func (p *pressure) excessOf(live []int64) int64 {
	var e int64
	for _, n := range live {
		if n > p.w {
			e += n - p.w
		}
	}
	return e
}

// score returns the pressure after applying moves, touching only the
// groups the moved arrays appear in. When commit is set the moves are
// kept.
func (p *pressure) score(moves []move, commit bool) int64 {
	p.stamp++
	total := p.total
	for mi, mv := range moves {
		for _, mb := range p.members[mv.arr] {
			if p.seen[mb.group] == p.stamp {
				continue // already rescored with an earlier move
			}
			p.seen[mb.group] = p.stamp
			live := p.live[mb.group]
			if !commit {
				live = append(p.scratch[:0], live...)
			}
			for _, other := range moves[mi:] {
				p.shift(live, other, mb.group)
			}
			e := p.excessOf(live)
			total += e - p.excess[mb.group]
			if commit {
				p.excess[mb.group] = e
			}
		}
	}
	if commit {
		for _, mv := range moves {
			p.place[mv.arr] = mv.f
		}
		p.total = total
	}
	return total
}

// shift replaces mv's array's contribution to group g's live vector with
// its contribution under the new placement (a no-op when the array is
// not in g).
func (p *pressure) shift(live []int64, mv move, g int) {
	for _, mb := range p.members[mv.arr] {
		if mb.group != g {
			continue
		}
		addMin(live, p.depths.of(mb.fp, p.place[mv.arr]), mb.streams, -1)
		addMin(live, p.depths.of(mb.fp, mv.f), mb.streams, 1)
		return
	}
}

// pair is one conflicting array pair of a matrix, by position.
type pair struct {
	i, j int
	w    int64
}

// pairsAbove lists the pairs weighing more than threshold in Figure 5's
// selection order: heaviest first, ties in row-major (i, j) order — the
// order in which repeatedly taking the first strict maximum of the
// remaining pairs visits them.
func (m *ConflictMatrix) pairsAbove(threshold int64) []pair {
	var ps []pair
	for i, row := range m.vals {
		for j := i + 1; j < len(row); j++ {
			if row[j] > threshold {
				ps = append(ps, pair{i, j, row[j]})
			}
		}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].w > ps[b].w })
	return ps
}

// SelectRelayoutVerified runs Figure 5's greedy pair selection with a
// per-step verification: a candidate bank assignment is kept only if it
// strictly lowers the Pressure over the verification groups. This guards
// against the transform's side effect of doubling an array's set depth
// within its half of the cache, which the paper's unverified greedy can
// turn into new conflicts.
//
// The greedy takes the pairs above threshold heaviest first and assigns
// the two arrays opposite banks (0 and C/2); an array already assigned
// keeps its bank and its partner takes the other one, and a pair whose
// arrays are both assigned is skipped (an earlier, heavier conflict fixed
// their layouts). Assignments only grow, so one walk over the pairs in
// weight order visits them exactly as rescanning for the maximum would.
//
// The verification groups should be the single-process co-access groups:
// arrays referenced in lockstep by one process thrash on every iteration
// when they overflow a set, which is the damage mode worth vetoing. The
// selection matrix m may additionally include successive-pair groups,
// whose conflicts are bounded one-time refills rather than per-iteration
// thrash. Every array of m and of the groups must be in base with an
// AddrFormula. Returns the accepted banks and the before/after pressure.
func SelectRelayoutVerified(verifyGroups []VerifyGroup, m *ConflictMatrix, base AddressMap,
	threshold int64, geom cache.Geometry) (map[*prog.Array]int64, int64, int64, error) {

	if err := geom.Validate(); err != nil {
		return nil, 0, 0, err
	}
	c := geom.PageSize()
	if c%2 != 0 {
		return nil, 0, 0, fmt.Errorf("layout: cache page size %d must be positive and even", c)
	}
	halfC := c / 2
	p, err := newPressure(verifyGroups, m.arrays, base, geom)
	if err != nil {
		return nil, 0, 0, err
	}
	before := p.total
	// Re-laid regions start on page boundaries, so the placement of an
	// array in bank b is this formula up to whole pages.
	relaid := func(i int, bank int64) move {
		return move{i, AddrFormula{Elem: m.arrays[i].Elem, Page: c, Bank: bank}}
	}
	bank := make([]int64, len(m.arrays))
	assigned := make([]bool, len(m.arrays))
	moves := make([]move, 0, 2)
	for _, pr := range m.pairsAbove(threshold) {
		i, j := pr.i, pr.j
		switch {
		case assigned[i] && assigned[j]:
			continue
		case assigned[i]:
			moves = append(moves[:0], relaid(j, halfC-bank[i]))
		case assigned[j]:
			moves = append(moves[:0], relaid(i, halfC-bank[j]))
		default:
			moves = append(moves[:0], relaid(i, 0), relaid(j, halfC))
		}
		if p.score(moves, false) < p.total {
			p.score(moves, true)
			for _, mv := range moves {
				bank[mv.arr] = mv.f.Bank
				assigned[mv.arr] = true
			}
		}
	}
	banks := make(map[*prog.Array]int64)
	for i, a := range m.arrays {
		if assigned[i] {
			banks[a] = bank[i]
		}
	}
	return banks, before, p.total, nil
}
