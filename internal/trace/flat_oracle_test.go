package trace

import (
	"fmt"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// The flat compiled stream and the interpreting cursor are the RLE
// encoding's oracles. Stream materializes one (address, flags) pair per
// access; InterpCursor resolves every access through the affine map,
// row-major linearization and the AddressMap interface, as the
// pre-compilation simulator did. Neither is used outside tests.

// Stream is a flat compiled address trace in structure-of-arrays form:
// the i-th access touches Addrs[i] with the properties packed in
// Flags[i].
type Stream struct {
	Addrs []int64
	Flags []byte
}

// MemBytes approximates the stream's resident size: 8 address bytes plus
// 1 flag byte per access.
func (s *Stream) MemBytes() int64 { return int64(len(s.Addrs)) * 9 }

// Stream compiles the flat stream for the spec under the generator's
// address map.
func (g *Generator) Stream(spec *prog.ProcessSpec) (*Stream, error) {
	return compile(spec, g.am)
}

// compile walks the spec's iteration space once and materializes the full
// access stream under the address map.
func compile(spec *prog.ProcessSpec, am layout.AddressMap) (*Stream, error) {
	total, err := spec.Accesses()
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	s := &Stream{
		Addrs: make([]int64, 0, total),
		Flags: make([]byte, 0, total),
	}
	fns := resolveRefFns(spec, am)
	idxBuf := make([]int64, 0, 4)
	err = spec.IterSpace.Points(func(pt []int64) bool {
		for i := range fns {
			fn := &fns[i]
			var addr int64
			addr, idxBuf = fn.addr(am, pt, idxBuf)
			s.Addrs = append(s.Addrs, addr)
			s.Flags = append(s.Flags, fn.flag)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	return s, nil
}

// Cursor walks a flat compiled stream.
type Cursor struct {
	s   *Stream
	pos int
}

// NewCursor returns a flat cursor positioned at the start of the process.
func (g *Generator) NewCursor(spec *prog.ProcessSpec) (*Cursor, error) {
	s, err := g.Stream(spec)
	if err != nil {
		return nil, err
	}
	return &Cursor{s: s}, nil
}

// Next returns the next access; ok is false at end of stream.
func (c *Cursor) Next() (Access, bool) {
	if c.pos >= len(c.s.Addrs) {
		return Access{}, false
	}
	f := c.s.Flags[c.pos]
	acc := Access{
		Addr:    c.s.Addrs[c.pos],
		Write:   f&FlagWrite != 0,
		NewIter: f&FlagNewIter != 0,
	}
	c.pos++
	return acc, true
}

// Done reports whether the stream is exhausted.
func (c *Cursor) Done() bool { return c.pos >= len(c.s.Addrs) }

// Remaining returns the number of accesses left in the stream.
func (c *Cursor) Remaining() int64 { return int64(len(c.s.Addrs) - c.pos) }

// Total returns the total number of accesses in the full stream.
func (c *Cursor) Total() int64 { return int64(len(c.s.Addrs)) }

// Reset rewinds the cursor to the start of the stream.
func (c *Cursor) Reset() { c.pos = 0 }

// InterpCursor interprets the spec access by access — affine map
// application, row-major linearization, AddressMap dispatch — with no
// compilation at all.
type InterpCursor struct {
	am     layout.AddressMap
	spec   *prog.ProcessSpec
	points [][]int64
	ptIdx  int
	refIdx int
	idxBuf []int64
}

// NewInterpCursor returns an interpreting cursor at the start of the
// process's stream.
func (g *Generator) NewInterpCursor(spec *prog.ProcessSpec) (*InterpCursor, error) {
	n, err := spec.Iterations()
	if err != nil {
		return nil, err
	}
	pts := make([][]int64, 0, n)
	err = spec.IterSpace.Points(func(pt []int64) bool {
		pts = append(pts, append([]int64(nil), pt...))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	return &InterpCursor{am: g.am, spec: spec, points: pts}, nil
}

// Next returns the next access; ok is false at end of stream.
func (c *InterpCursor) Next() (Access, bool) {
	if c.ptIdx >= len(c.points) {
		return Access{}, false
	}
	ref := c.spec.Refs[c.refIdx]
	pt := c.points[c.ptIdx]
	c.idxBuf = ref.Map.Apply(pt, c.idxBuf)
	lin := ref.Array.LinearIndex(c.idxBuf)
	acc := Access{
		Addr:    c.am.Addr(ref.Array, lin),
		Write:   ref.Kind == prog.Write,
		NewIter: c.refIdx == 0,
	}
	c.refIdx++
	if c.refIdx == len(c.spec.Refs) {
		c.refIdx = 0
		c.ptIdx++
	}
	return acc, true
}

// Remaining returns the number of accesses left in the stream.
func (c *InterpCursor) Remaining() int64 {
	if c.ptIdx >= len(c.points) {
		return 0
	}
	full := int64(len(c.points)-c.ptIdx) * int64(len(c.spec.Refs))
	return full - int64(c.refIdx)
}
