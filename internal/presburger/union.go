package presburger

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a finite union of BasicSets over a common space — the general
// form of the paper's Presburger sets. Intersections of unions, and
// iteration spaces with holes (e.g. boundary processes), are not
// representable as a single conjunction; Set closes the algebra.
type Set struct {
	space *Space
	parts []*BasicSet
}

// NewSet builds a union from basic sets over the same space. At least
// one part is required (use EmptySet for the empty union).
func NewSet(parts ...*BasicSet) (*Set, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("presburger: NewSet needs at least one part; use EmptySet")
	}
	space := parts[0].Space()
	for i, p := range parts {
		if !p.Space().Equal(space) {
			return nil, fmt.Errorf("presburger: part %d is over %v, want %v", i, p.Space(), space)
		}
	}
	return &Set{space: space, parts: append([]*BasicSet(nil), parts...)}, nil
}

// MustSet is NewSet that panics on error.
func MustSet(parts ...*BasicSet) *Set {
	s, err := NewSet(parts...)
	if err != nil {
		panic(err)
	}
	return s
}

// EmptySet returns the empty union over the space.
func EmptySet(space *Space) *Set { return &Set{space: space} }

// Space returns the set's variable space.
func (s *Set) Space() *Space { return s.space }

// Parts returns the union's basic sets.
func (s *Set) Parts() []*BasicSet { return append([]*BasicSet(nil), s.parts...) }

// Union returns s ∪ o. Both must share the space.
func (s *Set) Union(o *Set) (*Set, error) {
	if !s.space.Equal(o.space) {
		return nil, fmt.Errorf("presburger: union over different spaces %v and %v", s.space, o.space)
	}
	return &Set{space: s.space, parts: append(append([]*BasicSet(nil), s.parts...), o.parts...)}, nil
}

// Intersect returns s ∩ o as the pairwise intersection of parts.
func (s *Set) Intersect(o *Set) (*Set, error) {
	if !s.space.Equal(o.space) {
		return nil, fmt.Errorf("presburger: intersection over different spaces %v and %v", s.space, o.space)
	}
	out := &Set{space: s.space}
	for _, a := range s.parts {
		for _, b := range o.parts {
			isect, err := a.Intersect(b)
			if err != nil {
				return nil, err
			}
			out.parts = append(out.parts, isect)
		}
	}
	return out, nil
}

// Contains reports whether the point lies in any part.
func (s *Set) Contains(pt []int64) bool {
	for _, p := range s.parts {
		if p.Contains(pt) {
			return true
		}
	}
	return false
}

// Points enumerates the distinct integer points of the union in
// lexicographic order (duplicates across overlapping parts are removed).
// The slice passed to yield is owned by the callee for the duration of
// the call only.
func (s *Set) Points(yield func(pt []int64) bool) error {
	var all [][]int64
	for _, p := range s.parts {
		err := p.Points(func(pt []int64) bool {
			all = append(all, append([]int64(nil), pt...))
			return true
		})
		if err != nil {
			return err
		}
	}
	sort.Slice(all, func(i, j int) bool { return lexLess(all[i], all[j]) })
	for i, pt := range all {
		if i > 0 && lexEqual(all[i-1], pt) {
			continue
		}
		if !yield(pt) {
			return nil
		}
	}
	return nil
}

// Card returns the number of distinct integer points in the union.
func (s *Set) Card() (int64, error) {
	// Single-part fast path: no dedup needed.
	if len(s.parts) == 1 {
		return s.parts[0].Card()
	}
	var n int64
	err := s.Points(func([]int64) bool { n++; return true })
	return n, err
}

// IsEmpty reports whether the union has no integer points.
func (s *Set) IsEmpty() (bool, error) {
	for _, p := range s.parts {
		empty, err := p.IsEmpty()
		if err != nil {
			return false, err
		}
		if !empty {
			return false, nil
		}
	}
	return true, nil
}

func (s *Set) String() string {
	if len(s.parts) == 0 {
		return "{} (empty)"
	}
	var parts []string
	for _, p := range s.parts {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ∪ ")
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lexEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
