package layout

import (
	"math/rand"
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

// TestPairsAboveMatchesRescanOrder: walking pairsAbove once, skipping
// pairs whose arrays are both assigned, visits exactly the pairs that
// rescanning for the first strict maximum picks, in the same order —
// whatever the acceptance decisions — on small-valued random matrices
// full of ties.
func TestPairsAboveMatchesRescanOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		m := &ConflictMatrix{vals: make([][]int64, n)}
		for i := range m.vals {
			m.vals[i] = make([]int64, n)
		}
		accept := make([][]bool, n)
		for i := 0; i < n; i++ {
			accept[i] = make([]bool, n)
			for j := i + 1; j < n; j++ {
				v := int64(rng.Intn(4))
				m.vals[i][j], m.vals[j][i] = v, v
				accept[i][j] = rng.Intn(2) == 0
			}
		}
		threshold := int64(rng.Intn(2))

		var rescan [][2]int
		done := make([]bool, n)
		vals := make([][]int64, n)
		for i := range vals {
			vals[i] = append([]int64(nil), m.vals[i]...)
		}
		for {
			bi, bj, best := -1, -1, threshold
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if done[i] && done[j] {
						continue
					}
					if vals[i][j] > best {
						bi, bj, best = i, j, vals[i][j]
					}
				}
			}
			if bi < 0 {
				break
			}
			vals[bi][bj], vals[bj][bi] = 0, 0
			rescan = append(rescan, [2]int{bi, bj})
			if accept[bi][bj] {
				done[bi], done[bj] = true, true
			}
		}

		var walk [][2]int
		done = make([]bool, n)
		for _, p := range m.pairsAbove(threshold) {
			if done[p.i] && done[p.j] {
				continue
			}
			walk = append(walk, [2]int{p.i, p.j})
			if accept[p.i][p.j] {
				done[p.i], done[p.j] = true, true
			}
		}
		if !reflect.DeepEqual(rescan, walk) {
			t.Fatalf("trial %d: rescan order %v, sorted walk %v", trial, rescan, walk)
		}
	}
}

// mappingCase is one randomized verification problem.
type mappingCase struct {
	geom      cache.Geometry
	base      *Packed
	groups    []VerifyGroup
	matrix    *ConflictMatrix
	threshold int64
}

// randomMappingCase draws a geometry (assoc 1–8, several set counts and
// block sizes), arrays whose element sizes may straddle blocks, a packed
// base whose alignment may leave bases off page and block boundaries,
// and verification groups over random footprints whose Refs may be
// zero, missing, or absent altogether.
func randomMappingCase(rng *rand.Rand) mappingCase {
	block := []int64{8, 16, 32, 64}[rng.Intn(4)]
	sets := []int64{2, 4, 8, 16, 64}[rng.Intn(5)]
	assoc := []int{1, 2, 4, 8}[rng.Intn(4)]
	geom := cache.Geometry{Size: sets * block * int64(assoc), BlockSize: block, Assoc: assoc}
	page := geom.PageSize()

	elemSizes := []int64{1, 2, 4, 8, 12, 24}
	arrays := make([]*prog.Array, 2+rng.Intn(6))
	for i := range arrays {
		elem := elemSizes[rng.Intn(len(elemSizes))]
		elems := 1 + rng.Int63n(3*page/elem+8)
		arrays[i] = prog.MustArray(string(rune('A'+i)), elem, elems)
	}
	align := []int64{1, 4, 12, block, page}[rng.Intn(5)]
	base := MustPack(align, arrays...)

	randomFP := func(a *prog.Array) *eset.Set {
		b := eset.NewBuilder()
		for r := rng.Intn(4); r >= 0; r-- {
			lo := rng.Int63n(a.Elems())
			b.AddRange(lo, lo+1+rng.Int63n(a.Elems()-lo))
		}
		return b.Build()
	}
	var groups []VerifyGroup
	var coAccess []Footprints
	for k := 1 + rng.Intn(5); k > 0; k-- {
		g := VerifyGroup{FP: make(Footprints)}
		if rng.Intn(4) > 0 {
			g.Refs = make(map[*prog.Array]int)
		}
		for _, a := range arrays {
			if rng.Intn(3) == 0 {
				continue
			}
			g.FP[a] = randomFP(a)
			if g.Refs != nil && rng.Intn(4) > 0 {
				g.Refs[a] = rng.Intn(4) // 0 counts as one stream
			}
		}
		groups = append(groups, g)
		coAccess = append(coAccess, g.FP)
	}
	// Successive-pair groups widen the matrix beyond the verify groups.
	for i := 0; i+1 < len(coAccess) && rng.Intn(2) == 0; i++ {
		coAccess = append(coAccess, coAccess[i].Merge(coAccess[i+1]))
	}
	m, err := Conflicts(coAccess, base, geom)
	if err != nil {
		panic(err)
	}
	threshold := int64(0)
	if rng.Intn(2) == 0 {
		threshold = m.AverageThreshold()
	}
	return mappingCase{geom, base, groups, m, threshold}
}

// checkAgainstRescan compares the incremental verifier with the
// full-recompute oracle on one case.
func checkAgainstRescan(t *testing.T, c mappingCase) (relaid int) {
	t.Helper()
	banks, before, after, err := SelectRelayoutVerified(c.groups, c.matrix, c.base, c.threshold, c.geom)
	if err != nil {
		t.Fatal(err)
	}
	wantBanks, wantBefore, wantAfter, err := SelectRelayoutVerifiedRescan(c.groups, c.matrix, c.base, c.threshold, c.geom)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(banks, wantBanks) || before != wantBefore || after != wantAfter {
		t.Fatalf("geometry %v: incremental = %v, %d -> %d; oracle = %v, %d -> %d",
			c.geom, banks, before, after, wantBanks, wantBefore, wantAfter)
	}
	return len(banks)
}

// TestSelectRelayoutVerifiedMatchesRescan is the randomized property:
// the incremental verifier returns the oracle's banks and pressures.
func TestSelectRelayoutVerifiedMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 1000
	var relaid, candidates int
	for trial := 0; trial < trials; trial++ {
		c := randomMappingCase(rng)
		candidates += len(c.matrix.pairsAbove(c.threshold))
		relaid += checkAgainstRescan(t, c)
	}
	t.Logf("%d trials: %d candidate pairs, %d arrays re-laid", trials, candidates, relaid)
	if relaid < trials/4 || candidates < 2*relaid {
		t.Errorf("cases too tame: %d candidate pairs, %d arrays re-laid", candidates, relaid)
	}
}

// FuzzPressureIncremental drives the same property from fuzzed seeds.
func FuzzPressureIncremental(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstRescan(t, randomMappingCase(rand.New(rand.NewSource(seed))))
	})
}

// TestSetDepthsMatchesBlockSet checks the map-free block count against
// an explicit block set, for linear and interleaved placements at
// arbitrary bases.
func TestSetDepthsMatchesBlockSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		geom := cache.Geometry{Size: 2048, BlockSize: []int64{8, 16, 32}[rng.Intn(3)], Assoc: 1 << rng.Intn(3)}
		page := geom.PageSize()
		f := AddrFormula{Base: rng.Int63n(4 * page), Elem: []int64{1, 4, 12, 40}[rng.Intn(4)]}
		if rng.Intn(2) == 0 {
			f.Page = page
			f.Bank = page / 2 * rng.Int63n(2)
		}
		b := eset.NewBuilder()
		for r := rng.Intn(5); r >= 0; r-- {
			lo := rng.Int63n(500)
			b.AddRange(lo, lo+1+rng.Int63n(200))
		}
		fp := b.Build()

		want := make([]int64, geom.NumSets())
		blocks := make(map[int64]bool)
		fp.Elements(func(e int64) bool {
			addr := f.Addr(e)
			for blk := geom.BlockOf(addr); blk <= geom.BlockOf(addr+f.Elem-1); blk++ {
				if !blocks[blk] {
					blocks[blk] = true
					want[blk%geom.NumSets()]++
				}
			}
			return true
		})
		if got := setDepths(fp, f, geom); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: formula %+v: setDepths = %v, want %v", trial, f, got, want)
		}
		// Shifting the base by whole pages leaves the memoized depths alone.
		shifted := f
		shifted.Base += page * (1 + rng.Int63n(5))
		memo := newDepthMemo(geom)
		if got := memo.of(fp, shifted); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: page-shifted formula %+v: depths %v, want %v", trial, shifted, got, want)
		}
	}
}

// bareMap is an AddressMap without closed-form formulas.
type bareMap struct{ p *Packed }

func (b bareMap) Addr(a *prog.Array, linear int64) int64 { return b.p.Addr(a, linear) }
func (b bareMap) Arrays() []*prog.Array                  { return b.p.Arrays() }
func (b bareMap) Size() int64                            { return b.p.Size() }

// TestSelectRelayoutVerifiedErrors: arrays the base layout does not
// place, or places without a formula, are errors rather than panics.
func TestSelectRelayoutVerifiedErrors(t *testing.T) {
	a := prog.MustArray("A", 4, 1024)
	b := prog.MustArray("B", 4, 1024)
	c := prog.MustArray("C", 4, 1024)
	stranger := prog.MustArray("D", 4, 64)
	full := MustPack(testGeom.PageSize(), a, b, c)
	group := VerifyGroup{FP: coGroup(a, b, c), Refs: map[*prog.Array]int{a: 1, b: 1, c: 1}}
	cm, err := Conflicts([]Footprints{group.FP}, full, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		groups []VerifyGroup
		base   AddressMap
	}{
		"matrix array missing from base": {nil, MustPack(testGeom.PageSize(), a, b)},
		"group array missing from base":  {[]VerifyGroup{{FP: coGroup(a, stranger)}}, full},
		"base without formulas":          {[]VerifyGroup{group}, bareMap{full}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, _, _, err := SelectRelayoutVerified(tc.groups, cm, tc.base, 0, testGeom); err == nil {
				t.Error("want an error")
			}
		})
	}
	if _, err := Conflicts([]Footprints{group.FP}, bareMap{full}, testGeom); err == nil {
		t.Error("Conflicts over a map without formulas should fail")
	}
	odd := cache.Geometry{Size: 3, BlockSize: 1, Assoc: 1} // a 3-byte page has no half
	if _, _, _, err := SelectRelayoutVerified([]VerifyGroup{group}, cm, full, 0, odd); err == nil {
		t.Error("an odd cache page should fail")
	}
}
