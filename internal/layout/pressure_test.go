package layout

import (
	"fmt"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/eset"
	"locsched/internal/prog"
)

func fullSet(a *prog.Array) *eset.Set {
	return eset.FromRuns(eset.Run{Lo: 0, Hi: a.Elems()})
}

// checkedPressure returns the oracle Pressure of groups under am after
// checking that the incremental verifier's starting total agrees.
func checkedPressure(groups []VerifyGroup, am AddressMap, geom cache.Geometry) (int64, error) {
	want, err := Pressure(groups, am, geom)
	if err != nil {
		return 0, err
	}
	p, err := newPressure(groups, nil, am, geom)
	if err != nil {
		return 0, err
	}
	if p.total != want {
		return 0, fmt.Errorf("incremental pressure %d, full recompute %d", p.total, want)
	}
	return want, nil
}

func TestPressureLockstepTriple(t *testing.T) {
	// Three page-aligned 4KB arrays read in lockstep by one process in a
	// 2-way cache: 3 live streams per set > 2 ways → pressure 1×sets.
	a := prog.MustArray("A", 4, 1024)
	b := prog.MustArray("B", 4, 1024)
	c := prog.MustArray("C", 4, 1024)
	p := MustPack(testGeom.PageSize(), a, b, c)
	g := VerifyGroup{
		FP:   Footprints{a: fullSet(a), b: fullSet(b), c: fullSet(c)},
		Refs: map[*prog.Array]int{a: 1, b: 1, c: 1},
	}
	got, err := checkedPressure([]VerifyGroup{g}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if want := testGeom.NumSets(); got != want {
		t.Errorf("Pressure = %d, want %d (one excess stream per set)", got, want)
	}
}

func TestPressurePairFits(t *testing.T) {
	// Two lockstep streams fit a 2-way cache: zero pressure.
	a := prog.MustArray("A", 4, 1024)
	b := prog.MustArray("B", 4, 1024)
	p := MustPack(testGeom.PageSize(), a, b)
	g := VerifyGroup{
		FP:   Footprints{a: fullSet(a), b: fullSet(b)},
		Refs: map[*prog.Array]int{a: 1, b: 1},
	}
	got, err := checkedPressure([]VerifyGroup{g}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Pressure = %d, want 0 (two streams fit two ways)", got)
	}
}

func TestPressureSingleStreamDeepArrayIsFree(t *testing.T) {
	// One reference streaming a 16KB array (4 blocks per set) revisits
	// each set only after a full stride: live estimate min(1, 4) = 1, no
	// pressure. This is what lets the Figure 4 transform double an
	// array's set depth without being vetoed.
	a := prog.MustArray("A", 4, 4096)
	p := MustPack(testGeom.PageSize(), a)
	g := VerifyGroup{
		FP:   Footprints{a: fullSet(a)},
		Refs: map[*prog.Array]int{a: 1},
	}
	got, err := checkedPressure([]VerifyGroup{g}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Pressure = %d, want 0 (single stream)", got)
	}
}

func TestPressureMultipleRefsToDeepArray(t *testing.T) {
	// Three references walking three distinct bands of one array that a
	// re-layout folded into the same sets: live estimate min(3, depth 3)
	// = 3 > 2 ways → pressure (the MxM reduce damage mode).
	a := prog.MustArray("A", 4, 3072) // 12KB = depth 3 per set page-aligned
	p := MustPack(testGeom.PageSize(), a)
	g := VerifyGroup{
		FP:   Footprints{a: fullSet(a)},
		Refs: map[*prog.Array]int{a: 3},
	}
	got, err := checkedPressure([]VerifyGroup{g}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if want := testGeom.NumSets(); got != want {
		t.Errorf("Pressure = %d, want %d", got, want)
	}
}

func TestPressureMissingRefsDefaultsToOneStream(t *testing.T) {
	a := prog.MustArray("A", 4, 4096)
	p := MustPack(testGeom.PageSize(), a)
	g := VerifyGroup{FP: Footprints{a: fullSet(a)}} // no Refs map
	got, err := checkedPressure([]VerifyGroup{g}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Pressure = %d, want 0 (defaults to one stream)", got)
	}
}

func TestPressureInvalidGeometry(t *testing.T) {
	a := prog.MustArray("A", 4, 64)
	p := MustPack(32, a)
	bad := cache.Geometry{Size: 100, BlockSize: 32, Assoc: 2}
	if _, err := Pressure(nil, p, bad); err == nil {
		t.Error("invalid geometry should fail")
	}
	_ = a
}

func TestSelectRelayoutVerifiedAcceptsImprovement(t *testing.T) {
	// The Track pattern: three lockstep aliasing arrays in a 2-way cache.
	// Verified selection must separate a pair and strictly reduce
	// pressure.
	a := prog.MustArray("A", 4, 1024)
	b := prog.MustArray("B", 4, 1024)
	c := prog.MustArray("C", 4, 1024)
	base := MustPack(testGeom.PageSize(), a, b, c)
	group := VerifyGroup{
		FP:   Footprints{a: fullSet(a), b: fullSet(b), c: fullSet(c)},
		Refs: map[*prog.Array]int{a: 1, b: 1, c: 1},
	}
	cm, err := Conflicts([]Footprints{group.FP}, base, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	banks, before, after, err := SelectRelayoutVerified([]VerifyGroup{group}, cm, base, 0, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if len(banks) == 0 {
		t.Fatalf("verified selection should re-lay out the triple (before=%d after=%d)", before, after)
	}
	if after >= before {
		t.Errorf("pressure should strictly drop: before %d, after %d", before, after)
	}
	rl, err := ApplyRelayout(base, testGeom, banks)
	if err != nil {
		t.Fatal(err)
	}
	check, err := Pressure([]VerifyGroup{group}, rl, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if check != after {
		t.Errorf("reported after-pressure %d, recomputed %d", after, check)
	}
}

func TestSelectRelayoutVerifiedRejectsHarm(t *testing.T) {
	// Three references into three bands of ONE deep array: any re-layout
	// of that array folds the bands together (the MxM reduce damage
	// mode), so nothing should be selected even with conflicts present
	// from a second array.
	deep := prog.MustArray("deep", 4, 3072) // 3 pages
	other := prog.MustArray("other", 4, 1024)
	base := MustPack(testGeom.PageSize(), deep, other)
	bandSet := func(band int64) *eset.Set {
		return eset.FromRuns(eset.Run{Lo: band * 1024, Hi: (band + 1) * 1024})
	}
	reduceLike := VerifyGroup{
		FP: Footprints{
			deep:  bandSet(0).Union(bandSet(1)).Union(bandSet(2)),
			other: fullSet(other),
		},
		Refs: map[*prog.Array]int{deep: 3, other: 1},
	}
	cm, err := Conflicts([]Footprints{reduceLike.FP}, base, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	banks, before, after, err := SelectRelayoutVerified([]VerifyGroup{reduceLike}, cm, base, 0, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("verified selection made pressure worse: %d -> %d with banks %v", before, after, banks)
	}
}

func TestConflictMatrixAccessors(t *testing.T) {
	a := prog.MustArray("A", 4, 1024)
	b := prog.MustArray("B", 4, 1024)
	c := prog.MustArray("C", 4, 1024)
	p := MustPack(testGeom.PageSize(), a, b, c)
	m, err := Conflicts([]Footprints{coGroup(a, b, c)}, p, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Arrays(); len(got) != 3 {
		t.Errorf("Arrays = %v", got)
	}
	if m.Total() != m.Conflict(a, b)+m.Conflict(a, c)+m.Conflict(b, c) {
		t.Error("Total should sum the upper triangle")
	}
	if m.String() == "" {
		t.Error("String should render")
	}
}

func TestAddressMapAccessors(t *testing.T) {
	a := prog.MustArray("A", 4, 256)
	base := MustPack(32, a)
	rl, err := ApplyRelayout(base, testGeom, map[*prog.Array]int64{a: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := rl.Arrays(); len(got) != 1 || got[0] != a {
		t.Errorf("Arrays = %v", got)
	}
	if rl.Size() <= base.Size() {
		t.Errorf("re-laid size %d should exceed base %d", rl.Size(), base.Size())
	}
}
