package trace

import (
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

func testSetup(t *testing.T) (*Generator, *prog.ProcessSpec, *prog.Array) {
	t.Helper()
	a := prog.MustArray("A", 4, 1000)
	b := prog.MustArray("B", 4, 1000)
	iter := prog.Seg("i", 0, 10)
	spec := prog.MustProcessSpec("p", iter, 3,
		prog.StreamRef(a, prog.Read, iter, 1, 0),
		prog.StreamRef(b, prog.Write, iter, 2, 5),
	)
	am := layout.MustPack(32, a, b)
	return NewGenerator(am), spec, a
}

func TestCursorStream(t *testing.T) {
	g, spec, a := testSetup(t)
	c, err := g.NewCursor(spec)
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	if c.Total() != 20 {
		t.Errorf("Total = %d, want 20", c.Total())
	}
	am := g.AddressMap()
	var got []Access
	for {
		acc, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, acc)
	}
	if len(got) != 20 {
		t.Fatalf("stream length = %d, want 20", len(got))
	}
	// Iteration i: read A[i], write B[2i+5].
	for i := 0; i < 10; i++ {
		rd := got[2*i]
		wr := got[2*i+1]
		if !rd.NewIter {
			t.Errorf("access %d should start an iteration", 2*i)
		}
		if wr.NewIter {
			t.Errorf("access %d should not start an iteration", 2*i+1)
		}
		if rd.Write {
			t.Errorf("access %d should be a read", 2*i)
		}
		if !wr.Write {
			t.Errorf("access %d should be a write", 2*i+1)
		}
		if want := am.Addr(a, int64(i)); rd.Addr != want {
			t.Errorf("read %d addr = %d, want %d", i, rd.Addr, want)
		}
	}
	if !c.Done() || c.Remaining() != 0 {
		t.Error("cursor should be exhausted")
	}
	if _, ok := c.Next(); ok {
		t.Error("Next after exhaustion should report !ok")
	}
}

func TestCursorResume(t *testing.T) {
	g, spec, _ := testSetup(t)
	full, err := g.NewCursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []Access
	for {
		acc, ok := full.Next()
		if !ok {
			break
		}
		want = append(want, acc)
	}

	// Same stream read in chunks of 3 (simulating preemption).
	c, err := g.NewCursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []Access
	for !c.Done() {
		for k := 0; k < 3 && !c.Done(); k++ {
			acc, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, acc)
		}
		// Preemption point: remaining count must stay consistent.
		if c.Remaining() != int64(len(want)-len(got)) {
			t.Fatalf("Remaining = %d, want %d", c.Remaining(), len(want)-len(got))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("chunked stream length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCursorReset(t *testing.T) {
	g, spec, _ := testSetup(t)
	c, err := g.NewCursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := c.Next()
	for !c.Done() {
		c.Next()
	}
	c.Reset()
	again, ok := c.Next()
	if !ok || again != first {
		t.Errorf("after Reset first access = %+v, want %+v", again, first)
	}
}

func TestGeneratorMemoizesStreams(t *testing.T) {
	g, spec, _ := testSetup(t)
	c1, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Both cursors share the same compiled stream.
	if c1.Stream() == nil || c2.Stream() == nil {
		t.Fatal("stream missing")
	}
	if c1.Stream() != c2.Stream() {
		t.Error("cursors should share the compiled stream")
	}
	// A second generator over the same closed-form address map reuses
	// the package-level cache.
	c3, err := NewGenerator(g.AddressMap()).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Stream() != c1.Stream() {
		t.Error("generators over one address map should share the compiled stream")
	}
	// Advancing one must not affect the other.
	c1.Next()
	if seg, iter, ref := c2.Pos(); seg != 0 || iter != 0 || ref != 0 {
		t.Errorf("cursors must be independent: c2 at (%d,%d,%d)", seg, iter, ref)
	}
}

func TestCursorRespectsRelayout(t *testing.T) {
	// A cursor over a re-laid-out address map must see transformed
	// addresses, across the half-page seams where the RLE encoding cuts
	// its segments.
	a := prog.MustArray("A", 4, 2048)
	iter := prog.Seg("i", 0, 2048)
	spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(a, prog.Read, iter, 1, 0))
	base := layout.MustPack(32, a)
	geom := testGeomFor()
	rl, err := layout.ApplyRelayout(base, geom, map[*prog.Array]int64{a: geom.PageSize() / 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewGenerator(rl).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stream().NumSegs() < 2 {
		t.Fatalf("relayouted stream has %d segments, want a seam", c.Stream().NumSegs())
	}
	moved := false
	for i := int64(0); ; i++ {
		acc, ok := c.Next()
		if !ok {
			if i != 2048 {
				t.Fatalf("stream ended after %d accesses, want 2048", i)
			}
			break
		}
		if acc.Addr != rl.Addr(a, i) {
			t.Fatalf("access %d: addr = %d, want %d", i, acc.Addr, rl.Addr(a, i))
		}
		moved = moved || acc.Addr != base.Addr(a, i)
	}
	if !moved {
		t.Error("re-laid-out addresses should differ from the packed ones")
	}
}
