package presburger

import (
	"fmt"
	"testing"
)

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("NewSpace() with no names should fail")
	}
	if _, err := NewSpace("i", "i"); err == nil {
		t.Error("NewSpace with duplicate names should fail")
	}
	if _, err := NewSpace(""); err == nil {
		t.Error("NewSpace with empty name should fail")
	}
	s, err := NewSpace("i", "j")
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", s.Dim())
	}
	if s.VarIndex("j") != 1 {
		t.Errorf("VarIndex(j) = %d, want 1", s.VarIndex("j"))
	}
	if s.VarIndex("k") != -1 {
		t.Errorf("VarIndex(k) = %d, want -1", s.VarIndex("k"))
	}
}

func TestSpaceEqual(t *testing.T) {
	a := MustSpace("i", "j")
	b := MustSpace("i", "j")
	c := MustSpace("j", "i")
	d := MustSpace("i")
	if !a.Equal(b) {
		t.Error("identical spaces should be Equal")
	}
	if a.Equal(c) {
		t.Error("reordered spaces should not be Equal")
	}
	if a.Equal(d) {
		t.Error("different-arity spaces should not be Equal")
	}
	if a.Equal(nil) {
		t.Error("space should not Equal nil")
	}
}

func TestLinExprArithmetic(t *testing.T) {
	// e = 2i - 3j + 5 over [i,j]
	e := Term(2, 0, 2).Add(Term(2, 1, -3)).AddConst(5)
	if got := e.Eval([]int64{1, 1}); got != 4 {
		t.Errorf("Eval(1,1) = %d, want 4", got)
	}
	if got := e.Eval([]int64{0, 0}); got != 5 {
		t.Errorf("Eval(0,0) = %d, want 5", got)
	}
	s := e.Scale(-2)
	if got := s.Eval([]int64{1, 1}); got != -8 {
		t.Errorf("Scale(-2).Eval(1,1) = %d, want -8", got)
	}
	d := e.Sub(e)
	if !d.IsConst() || d.K != 0 {
		t.Errorf("e-e should be the zero constant, got %v", d)
	}
	if vs := e.Vars(); len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Errorf("Vars = %v, want [0 1]", vs)
	}
}

func TestLinExprString(t *testing.T) {
	sp := MustSpace("i", "j")
	e := Term(2, 0, 1).Add(Term(2, 1, -2)).AddConst(7)
	got := e.StringIn(sp)
	want := "i - 2*j + 7"
	if got != want {
		t.Errorf("StringIn = %q, want %q", got, want)
	}
	z := Zero(2)
	if z.StringIn(sp) != "0" {
		t.Errorf("zero expr String = %q, want 0", z.StringIn(sp))
	}
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct {
		a, b, ceil, floor int64
	}{
		{7, 2, 4, 3},
		{-7, 2, -3, -4},
		{7, -2, -3, -4},
		{-7, -2, 4, 3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
}

func TestRectCardAndPoints(t *testing.T) {
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{8, 3000})
	card, err := b.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if card != 8*3000 {
		t.Errorf("Card = %d, want 24000", card)
	}
	var n int64
	if err := b.Points(func(pt []int64) bool { n++; return true }); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if n != card {
		t.Errorf("Points enumerated %d, Card says %d", n, card)
	}
}

func TestPointsLexicographicOrder(t *testing.T) {
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{3, 2})
	var got [][2]int64
	if err := b.Points(func(pt []int64) bool {
		got = append(got, [2]int64{pt[0], pt[1]})
		return true
	}); err != nil {
		t.Fatalf("Points: %v", err)
	}
	want := [][2]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPointsEarlyStop(t *testing.T) {
	sp := MustSpace("i")
	b := MustRect(sp, []int64{0}, []int64{100})
	var n int
	if err := b.Points(func(pt []int64) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if n != 5 {
		t.Errorf("early stop after %d points, want 5", n)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// {[i,j]: i = 3 && 0 <= j < 10}
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{8, 10}).
		MustWith(EQZero(Term(2, 0, 1).AddConst(-3)))
	card, err := b.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if card != 10 {
		t.Errorf("Card = %d, want 10", card)
	}
	if err := b.Points(func(pt []int64) bool {
		if pt[0] != 3 {
			t.Errorf("point %v violates i=3", pt)
		}
		return true
	}); err != nil {
		t.Fatalf("Points: %v", err)
	}
}

func TestDiagonalConstraint(t *testing.T) {
	// {[i,j]: 0 <= i < 10 && 0 <= j < 10 && i + j <= 4}  -> triangular count
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{10, 10}).
		MustWith(GEZero(Term(2, 0, -1).Add(Term(2, 1, -1)).AddConst(4)))
	card, err := b.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	// i+j <= 4 with i,j >= 0: 5+4+3+2+1 = 15 points.
	if card != 15 {
		t.Errorf("Card = %d, want 15", card)
	}
}

func TestEmptySet(t *testing.T) {
	sp := MustSpace("i")
	// 0 <= i < 5 && i >= 7
	b := MustRect(sp, []int64{0}, []int64{5}).
		MustWith(GEZero(Term(1, 0, 1).AddConst(-7)))
	empty, err := b.IsEmpty()
	if err != nil {
		t.Fatalf("IsEmpty: %v", err)
	}
	if !empty {
		t.Error("set should be empty")
	}
	card, err := b.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if card != 0 {
		t.Errorf("Card = %d, want 0", card)
	}
}

func TestConstantFalseConstraint(t *testing.T) {
	sp := MustSpace("i")
	// 0 <= i < 5 && -1 >= 0 (constant false)
	b := MustRect(sp, []int64{0}, []int64{5}).MustWith(GEZero(Const(1, -1)))
	var n int
	if err := b.Points(func([]int64) bool { n++; return true }); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if n != 0 {
		t.Errorf("constant-false set enumerated %d points, want 0", n)
	}
	if card, err := b.Card(); err != nil || card != 0 {
		t.Errorf("Card = %d,%v, want 0 (constant-false GE)", card, err)
	}
}

// TestConstantFalseEquality is the regression test for a fuzzing find:
// a variable-free equality like 1 = 0 empties the set, but interval
// propagation never sees it, so Card's box fast-path reported 1.
func TestConstantFalseEquality(t *testing.T) {
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{1, 1}).MustWith(EQZero(Const(2, 1)))
	card, err := b.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if card != 0 {
		t.Errorf("Card = %d, want 0 (1 = 0 is unsatisfiable)", card)
	}
	empty, err := b.IsEmpty()
	if err != nil || !empty {
		t.Errorf("IsEmpty = %v,%v, want true", empty, err)
	}
}

func TestUnboundedSetRejected(t *testing.T) {
	sp := MustSpace("i")
	b := MustBasicSet(sp, GEZero(Var(1, 0))) // i >= 0, unbounded above
	if _, err := b.Card(); err == nil {
		t.Error("Card of unbounded set should fail")
	}
	if err := b.Points(func([]int64) bool { return true }); err == nil {
		t.Error("Points of unbounded set should fail")
	}
	if _, err := b.IsEmpty(); err == nil {
		t.Error("IsEmpty of unbounded set should fail")
	}
}

func TestIntersectDifferentSpacesFails(t *testing.T) {
	a := MustRect(MustSpace("i"), []int64{0}, []int64{5})
	b := MustRect(MustSpace("j"), []int64{0}, []int64{5})
	if _, err := a.Intersect(b); err == nil {
		t.Error("intersecting sets over different spaces should fail")
	}
}

func TestIntersectWindows(t *testing.T) {
	// The core sharing computation of the paper: two 3000-wide windows
	// offset by 1000 overlap in 2000 elements.
	sp := MustSpace("d")
	a := MustRect(sp, []int64{0}, []int64{3000})
	b := MustRect(sp, []int64{1000}, []int64{4000})
	isect, err := a.Intersect(b)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	card, err := isect.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if card != 2000 {
		t.Errorf("|[0,3000) ∩ [1000,4000)| = %d, want 2000", card)
	}
}

func TestContains(t *testing.T) {
	sp := MustSpace("i", "j")
	b := MustRect(sp, []int64{0, 0}, []int64{8, 3000})
	if !b.Contains([]int64{7, 2999}) {
		t.Error("corner point should be contained")
	}
	if b.Contains([]int64{8, 0}) {
		t.Error("i=8 is outside the half-open box")
	}
	if b.Contains([]int64{0, -1}) {
		t.Error("j=-1 is outside the box")
	}
}

func TestMapApplyAndImage(t *testing.T) {
	// The paper's access map (i1,i2) -> (i1*1000 + i2, 5).
	sp := MustSpace("i1", "i2")
	m := MustMap(sp,
		Term(2, 0, 1000).Add(Term(2, 1, 1)),
		Const(2, 5),
	)
	if m.OutDim() != 2 {
		t.Fatalf("OutDim = %d, want 2", m.OutDim())
	}
	got := m.Apply([]int64{3, 17}, nil)
	if got[0] != 3017 || got[1] != 5 {
		t.Errorf("Apply(3,17) = %v, want [3017 5]", got)
	}

	// Process k's iteration set: i1 = k, 0 <= i2 < 3000.
	mkProc := func(k int64) *BasicSet {
		return MustRect(sp, []int64{0, 0}, []int64{8, 3000}).
			MustWith(EQZero(Term(2, 0, 1).AddConst(-k)))
	}
	var firstSeen, lastSeen int64 = -1, -1
	var count int64
	if err := m.ImagePoints(mkProc(2), func(pt []int64) bool {
		if firstSeen == -1 {
			firstSeen = pt[0]
		}
		lastSeen = pt[0]
		if pt[1] != 5 {
			t.Errorf("image second coord = %d, want 5", pt[1])
		}
		count++
		return true
	}); err != nil {
		t.Fatalf("ImagePoints: %v", err)
	}
	if count != 3000 {
		t.Errorf("image multiplicity count = %d, want 3000", count)
	}
	if firstSeen != 2000 || lastSeen != 4999 {
		t.Errorf("image range [%d,%d], want [2000,4999]", firstSeen, lastSeen)
	}
}

func TestImageSpaceMismatch(t *testing.T) {
	m := MustMap(MustSpace("i"), Var(1, 0))
	b := MustRect(MustSpace("j"), []int64{0}, []int64{5})
	if err := m.ImagePoints(b, func([]int64) bool { return true }); err == nil {
		t.Error("image of set over mismatched space should fail")
	}
}

func TestConstraintValidation(t *testing.T) {
	sp := MustSpace("i", "j")
	if _, err := NewBasicSet(sp, GEZero(Var(1, 0))); err == nil {
		t.Error("constraint width mismatch should fail")
	}
	if _, err := NewMap(sp, Var(1, 0)); err == nil {
		t.Error("map expression width mismatch should fail")
	}
	if _, err := NewMap(sp); err == nil {
		t.Error("map with no outputs should fail")
	}
	if _, err := Rect(sp, []int64{0}, []int64{1, 2}); err == nil {
		t.Error("Rect with wrong bound widths should fail")
	}
}

func TestBasicSetString(t *testing.T) {
	sp := MustSpace("i")
	b := MustRect(sp, []int64{0}, []int64{8})
	s := b.String()
	if s == "" {
		t.Error("String should be non-empty")
	}
	// Smoke: must mention the variable.
	if want := "i"; !containsStr(s, want) {
		t.Errorf("String %q should mention %q", s, want)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestPaperSharingSets reproduces the sharing cardinalities behind the
// paper's Figure 2(a): |SS_k,p| = 3000 - 1000*|k-p| clamped at 0, for the
// access A[i1*1000+i2][5] with per-process windows of 3000 iterations.
func TestPaperSharingSets(t *testing.T) {
	sp := MustSpace("i1", "i2")
	access := MustMap(sp, Term(2, 0, 1000).Add(Term(2, 1, 1)))

	dataSpace := func(k int64) map[int64]bool {
		iter := MustRect(sp, []int64{0, 0}, []int64{8, 3000}).
			MustWith(EQZero(Term(2, 0, 1).AddConst(-k)))
		ds := make(map[int64]bool)
		if err := access.ImagePoints(iter, func(pt []int64) bool {
			ds[pt[0]] = true
			return true
		}); err != nil {
			t.Fatalf("ImagePoints: %v", err)
		}
		return ds
	}

	spaces := make([]map[int64]bool, 8)
	for k := int64(0); k < 8; k++ {
		spaces[k] = dataSpace(k)
	}
	for k := 0; k < 8; k++ {
		for p := 0; p < 8; p++ {
			var shared int64
			for e := range spaces[k] {
				if spaces[p][e] {
					shared++
				}
			}
			diff := int64(k - p)
			if diff < 0 {
				diff = -diff
			}
			want := 3000 - 1000*diff
			if want < 0 {
				want = 0
			}
			if k == p {
				want = 3000
			}
			if shared != want {
				t.Errorf("|SS_%d,%d| = %d, want %d", k, p, shared, want)
			}
		}
	}
}

func ExampleBasicSet_Card() {
	sp := MustSpace("i1", "i2")
	is := MustRect(sp, []int64{0, 0}, []int64{8, 3000})
	n, _ := is.Card()
	fmt.Println(n)
	// Output: 24000
}
