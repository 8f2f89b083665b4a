package prog

import (
	"testing"

	"locsched/internal/presburger"
)

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray("", 4, 10); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewArray("A", 0, 10); err == nil {
		t.Error("zero element size should fail")
	}
	if _, err := NewArray("A", 4); err == nil {
		t.Error("no dimensions should fail")
	}
	if _, err := NewArray("A", 4, 10, 0); err == nil {
		t.Error("zero extent should fail")
	}
	a, err := NewArray("A", 4, 8000, 10)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	if a.Rank() != 2 {
		t.Errorf("Rank = %d, want 2", a.Rank())
	}
	if a.Elems() != 80000 {
		t.Errorf("Elems = %d, want 80000", a.Elems())
	}
	if a.Bytes() != 320000 {
		t.Errorf("Bytes = %d, want 320000", a.Bytes())
	}
	if a.String() != "A[8000][10]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestLinearIndexRowMajor(t *testing.T) {
	a := MustArray("A", 4, 3, 5)
	if got := a.LinearIndex([]int64{0, 0}); got != 0 {
		t.Errorf("LinearIndex(0,0) = %d, want 0", got)
	}
	if got := a.LinearIndex([]int64{1, 0}); got != 5 {
		t.Errorf("LinearIndex(1,0) = %d, want 5", got)
	}
	if got := a.LinearIndex([]int64{2, 4}); got != 14 {
		t.Errorf("LinearIndex(2,4) = %d, want 14", got)
	}
}

func TestLinearIndexWraps(t *testing.T) {
	a := MustArray("A", 4, 3, 5)
	// Out-of-bounds indices wrap modulo the extent.
	if got := a.LinearIndex([]int64{3, 0}); got != 0 {
		t.Errorf("LinearIndex(3,0) = %d, want 0 (wrapped)", got)
	}
	if got := a.LinearIndex([]int64{-1, 0}); got != 10 {
		t.Errorf("LinearIndex(-1,0) = %d, want 10 (wrapped)", got)
	}
}

func TestLinearIndexRankMismatchPanics(t *testing.T) {
	a := MustArray("A", 4, 3, 5)
	defer func() {
		if recover() == nil {
			t.Error("rank mismatch should panic")
		}
	}()
	a.LinearIndex([]int64{1})
}

func TestNewRefValidation(t *testing.T) {
	a := MustArray("A", 4, 100)
	sp := presburger.MustSpace("i")
	m1 := presburger.MustMap(sp, presburger.Var(1, 0))
	m2 := presburger.MustMap(sp, presburger.Var(1, 0), presburger.Const(1, 0))
	if _, err := NewRef(nil, m1, Read); err == nil {
		t.Error("nil array should fail")
	}
	if _, err := NewRef(a, nil, Read); err == nil {
		t.Error("nil map should fail")
	}
	if _, err := NewRef(a, m2, Read); err == nil {
		t.Error("arity mismatch should fail")
	}
	r, err := NewRef(a, m1, Write)
	if err != nil {
		t.Fatalf("NewRef: %v", err)
	}
	if r.Kind.String() != "W" {
		t.Errorf("Kind = %v, want W", r.Kind)
	}
}

func TestProcessSpecValidation(t *testing.T) {
	a := MustArray("A", 4, 100)
	iter := Seg("i", 0, 10)
	ref := StreamRef(a, Read, iter, 1, 0)
	if _, err := NewProcessSpec("", iter, 0, ref); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewProcessSpec("p", nil, 0, ref); err == nil {
		t.Error("nil iteration space should fail")
	}
	if _, err := NewProcessSpec("p", iter, -1, ref); err == nil {
		t.Error("negative compute should fail")
	}
	if _, err := NewProcessSpec("p", iter, 0); err == nil {
		t.Error("no references should fail")
	}
	other := Seg("j", 0, 10)
	if _, err := NewProcessSpec("p", other, 0, ref); err == nil {
		t.Error("reference over wrong space should fail")
	}
}

func TestProcessSpecCounts(t *testing.T) {
	a := MustArray("A", 4, 100)
	b := MustArray("B", 4, 100)
	iter := Seg("i", 0, 50)
	p := MustProcessSpec("p", iter, 2,
		StreamRef(a, Read, iter, 1, 0),
		StreamRef(b, Write, iter, 1, 0),
		StreamRef(a, Read, iter, 1, 1),
	)
	n, err := p.Iterations()
	if err != nil {
		t.Fatalf("Iterations: %v", err)
	}
	if n != 50 {
		t.Errorf("Iterations = %d, want 50", n)
	}
	// cached path
	n2, _ := p.Iterations()
	if n2 != n {
		t.Errorf("cached Iterations = %d, want %d", n2, n)
	}
	acc, err := p.Accesses()
	if err != nil {
		t.Fatalf("Accesses: %v", err)
	}
	if acc != 150 {
		t.Errorf("Accesses = %d, want 150", acc)
	}
	arrays := p.Arrays()
	if len(arrays) != 2 || arrays[0] != a || arrays[1] != b {
		t.Errorf("Arrays = %v, want [A B] in first-use order", arrays)
	}
}

func TestRef2D(t *testing.T) {
	a := MustArray("A", 4, 8000, 10)
	iter := Seg("i", 0, 3000)
	// The paper's reference A[i1*1000 + i2][5] with i1 fixed: here A[i + 2000][5].
	r := Ref2D(a, Read, iter.Space(), []int64{1}, 2000, nil, 5)
	got := r.Map.Apply([]int64{7}, nil)
	if got[0] != 2007 || got[1] != 5 {
		t.Errorf("Apply(7) = %v, want [2007 5]", got)
	}
}

func TestSegBounds(t *testing.T) {
	s := Seg("i", 5, 12)
	n, err := s.Card()
	if err != nil {
		t.Fatalf("Card: %v", err)
	}
	if n != 7 {
		t.Errorf("Card = %d, want 7", n)
	}
	if !s.Contains([]int64{5}) || !s.Contains([]int64{11}) || s.Contains([]int64{12}) {
		t.Error("Seg bounds are wrong")
	}
}
