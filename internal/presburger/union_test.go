package presburger

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func seg1(t *testing.T, lo, hi int64) *BasicSet {
	t.Helper()
	return MustRect(MustSpace("i"), []int64{lo}, []int64{hi})
}

func TestEmptySetBehaviour(t *testing.T) {
	sp := MustSpace("i")
	e := EmptySet(sp)
	if empty, err := e.IsEmpty(); err != nil || !empty {
		t.Errorf("EmptySet should be empty: %v %v", empty, err)
	}
	n, err := e.Card()
	if err != nil || n != 0 {
		t.Errorf("Card = %d,%v, want 0", n, err)
	}
	if e.Contains([]int64{0}) {
		t.Error("EmptySet should contain nothing")
	}
	if e.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Error("NewSet with no parts should fail")
	}
	a := MustRect(MustSpace("i"), []int64{0}, []int64{5})
	b := MustRect(MustSpace("j"), []int64{0}, []int64{5})
	if _, err := NewSet(a, b); err == nil {
		t.Error("parts over different spaces should fail")
	}
}

func TestUnionDedup(t *testing.T) {
	// [0,10) ∪ [5,15): 15 distinct points, not 20.
	s, err := MustSet(seg1(t, 0, 10)).Union(MustSet(seg1(t, 5, 15)))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Card()
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Errorf("Card = %d, want 15", n)
	}
	var prev int64 = -1 << 62
	var count int
	if err := s.Points(func(pt []int64) bool {
		if pt[0] <= prev {
			t.Errorf("points not strictly increasing: %d after %d", pt[0], prev)
		}
		prev = pt[0]
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if int64(count) != n {
		t.Errorf("Points yielded %d, Card says %d", count, n)
	}
}

func TestIntersectionOfUnions(t *testing.T) {
	// ([0,10) ∪ [20,30)) ∩ ([5,25)) = [5,10) ∪ [20,25): 10 points.
	a := MustSet(seg1(t, 0, 10), seg1(t, 20, 30))
	b := MustSet(seg1(t, 5, 25))
	isect, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	n, err := isect.Card()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("Card = %d, want 10", n)
	}
	if !isect.Contains([]int64{7}) || !isect.Contains([]int64{22}) {
		t.Error("missing expected points")
	}
	if isect.Contains([]int64{15}) {
		t.Error("15 should not be in the intersection")
	}
}

func TestUnionSpaceMismatch(t *testing.T) {
	a := MustSet(MustRect(MustSpace("i"), []int64{0}, []int64{5}))
	b := MustSet(MustRect(MustSpace("j"), []int64{0}, []int64{5}))
	if _, err := a.Union(b); err == nil {
		t.Error("union over different spaces should fail")
	}
	if _, err := a.Intersect(b); err == nil {
		t.Error("intersection over different spaces should fail")
	}
}

func TestSetPointsEarlyStop(t *testing.T) {
	s := MustSet(seg1(t, 0, 100))
	n := 0
	if err := s.Points(func([]int64) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("early stop after %d, want 3", n)
	}
}

// TestQuickUnionMatchesBruteForce property: union/intersection
// cardinalities over random 1-D interval collections match a brute-force
// membership model.
func TestQuickUnionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sp := MustSpace("i")
	randUnion := func() (*Set, map[int64]bool) {
		n := 1 + rng.Intn(4)
		model := make(map[int64]bool)
		var parts []*BasicSet
		for k := 0; k < n; k++ {
			lo := int64(rng.Intn(60) - 30)
			hi := lo + int64(rng.Intn(25))
			parts = append(parts, MustRect(sp, []int64{lo}, []int64{hi}))
			for v := lo; v < hi; v++ {
				model[v] = true
			}
		}
		return MustSet(parts...), model
	}
	for trial := 0; trial < 100; trial++ {
		a, ma := randUnion()
		b, mb := randUnion()

		u, err := a.Union(b)
		if err != nil {
			t.Fatal(err)
		}
		i, err := a.Intersect(b)
		if err != nil {
			t.Fatal(err)
		}
		wantU, wantI := 0, 0
		for v := int64(-40); v < 70; v++ {
			if ma[v] || mb[v] {
				wantU++
			}
			if ma[v] && mb[v] {
				wantI++
			}
			if u.Contains([]int64{v}) != (ma[v] || mb[v]) {
				t.Fatalf("trial %d: union Contains(%d) wrong", trial, v)
			}
			if i.Contains([]int64{v}) != (ma[v] && mb[v]) {
				t.Fatalf("trial %d: intersection Contains(%d) wrong", trial, v)
			}
		}
		nu, err := u.Card()
		if err != nil {
			t.Fatal(err)
		}
		ni, err := i.Card()
		if err != nil {
			t.Fatal(err)
		}
		if nu != int64(wantU) || ni != int64(wantI) {
			t.Fatalf("trial %d: |A∪B|=%d want %d, |A∩B|=%d want %d", trial, nu, wantU, ni, wantI)
		}
	}
}

// TestQuick2DUnionCard property: 2-D unions of random boxes count
// correctly against a brute-force grid.
func TestQuick2DUnionCard(t *testing.T) {
	sp := MustSpace("i", "j")
	f := func(seeds [4]uint8) bool {
		mk := func(a, b uint8) *BasicSet {
			lo := []int64{int64(a % 10), int64(b % 10)}
			hi := []int64{lo[0] + int64(a%5) + 1, lo[1] + int64(b%5) + 1}
			return MustRect(sp, lo, hi)
		}
		s := MustSet(mk(seeds[0], seeds[1]), mk(seeds[2], seeds[3]))
		model := make(map[[2]int64]bool)
		for _, part := range s.Parts() {
			_ = part.Points(func(pt []int64) bool {
				model[[2]int64{pt[0], pt[1]}] = true
				return true
			})
		}
		n, err := s.Card()
		return err == nil && n == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
