package trace

import (
	"encoding/binary"
	"fmt"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// RLEStream is a compiled trace in strided run-length-encoded form. The
// paper's loop nests are overwhelmingly strided: consecutive iterations
// advance every reference by a constant byte delta, so instead of
// materializing one (address, flags) pair per access, the stream is cut
// into segments of consecutive iterations that share a per-iteration
// delta pattern. Each segment stores one start address per reference and
// an index into the interned pattern table; the access at (iteration t,
// reference j) of a segment is
//
//	addr = starts[j] + t·delta[j],  flags = Flags[j]
//
// which reproduces the access-by-access stream bit for bit (segment
// lanes are the {base, stride, count, flags} runs of the encoding).
// Identical delta patterns are deduplicated across segments — a
// relayouted array breaks its stream at every half-page seam into many
// segments that all share one pattern — so resident bytes scale with the
// number of strided phases, not with trace length.
//
// RLEStreams are immutable after compilation and safe to share.
type RLEStream struct {
	nrefs int
	flags []byte // per-reference flag bytes (flags[0] carries FlagNewIter)
	segs  []rleSeg
	// starts holds each segment's per-reference start addresses,
	// segment-major: segment s owns starts[s*nrefs : (s+1)*nrefs].
	starts []int64
	// pats is the interned delta-pattern table, pattern-major: pattern p
	// owns pats[p*nrefs : (p+1)*nrefs].
	pats []int64
	// cumIters[s] is the number of iterations in segments before s;
	// cumIters[len(segs)] is the total iteration count.
	cumIters []int64
}

type rleSeg struct {
	count int64 // iterations in this segment
	pat   int32 // index into the pattern table
}

// NRefs returns the number of references per iteration.
func (s *RLEStream) NRefs() int { return s.nrefs }

// Flags returns the per-reference flag bytes. Callers must not mutate.
func (s *RLEStream) Flags() []byte { return s.flags }

// NumSegs returns the number of segments.
func (s *RLEStream) NumSegs() int { return len(s.segs) }

// NumPatterns returns the number of distinct per-iteration delta patterns.
func (s *RLEStream) NumPatterns() int {
	if s.nrefs == 0 {
		return 0
	}
	return len(s.pats) / s.nrefs
}

// Iters returns the total number of iterations encoded.
func (s *RLEStream) Iters() int64 { return s.cumIters[len(s.segs)] }

// Len returns the total number of accesses encoded.
func (s *RLEStream) Len() int64 { return s.Iters() * int64(s.nrefs) }

// Seg returns segment i's per-reference start addresses and deltas (both
// nrefs long, not to be mutated) and its iteration count.
func (s *RLEStream) Seg(i int) (starts, deltas []int64, count int64) {
	seg := s.segs[i]
	off := i * s.nrefs
	poff := int(seg.pat) * s.nrefs
	return s.starts[off : off+s.nrefs], s.pats[poff : poff+s.nrefs], seg.count
}

// MemBytes approximates the stream's resident size.
func (s *RLEStream) MemBytes() int64 {
	return int64(len(s.segs))*16 +
		int64(len(s.starts))*8 +
		int64(len(s.pats))*8 +
		int64(len(s.cumIters))*8 +
		int64(len(s.flags))
}

// rleCache shares compiled RLE streams across generators and runs.
var rleCache boundedCache

// RLE returns the strided run-length encoding of the spec's stream,
// compiling it on first use. Compiled encodings are shared across
// generators and runs when the address map states its addressing in
// closed form.
func (g *Generator) RLE(spec *prog.ProcessSpec) (*RLEStream, error) {
	if s, ok := g.rles[spec]; ok {
		return s, nil
	}
	sig, keyed := addrSignature(spec, g.am)
	if keyed {
		if s, ok := rleCache.lookup(streamKey{spec, sig}); ok {
			g.rles[spec] = s
			return s, nil
		}
	}
	s, err := compileRLE(spec, g.am)
	if err != nil {
		return nil, err
	}
	if keyed {
		s = rleCache.add(streamKey{spec, sig}, s)
	}
	g.rles[spec] = s
	return s, nil
}

// compileRLE walks the spec's iteration space once and greedily cuts the
// address stream into constant-delta segments, interning delta patterns.
func compileRLE(spec *prog.ProcessSpec, am layout.AddressMap) (*RLEStream, error) {
	nrefs := len(spec.Refs)
	s := &RLEStream{nrefs: nrefs, flags: make([]byte, nrefs)}
	if nrefs == 0 {
		// prog.NewProcessSpec rejects empty Refs, but hand-rolled specs can
		// reach here. A zero-reference process makes no accesses, so
		// encode no segments rather than iteration-counting ones: its
		// cursor is Done from the start.
		s.cumIters = []int64{0}
		return s, nil
	}
	fns := resolveRefFns(spec, am)
	for i := range fns {
		s.flags[i] = fns[i].flag
	}

	patIdx := make(map[string]int32)
	patKey := make([]byte, nrefs*8)
	intern := func(delta []int64) int32 {
		for j, d := range delta {
			binary.LittleEndian.PutUint64(patKey[j*8:], uint64(d))
		}
		if p, ok := patIdx[string(patKey)]; ok {
			return p
		}
		p := int32(len(s.pats) / max(nrefs, 1))
		patIdx[string(patKey)] = p
		s.pats = append(s.pats, delta...)
		return p
	}

	var (
		idxBuf    = make([]int64, 0, 4)
		prev      = make([]int64, nrefs)
		cur       = make([]int64, nrefs)
		delta     = make([]int64, nrefs)
		segCount  int64
		segPat    = int32(-1)
		firstIter = true
	)
	closeSeg := func() {
		if segCount == 0 {
			return
		}
		if segPat < 0 {
			// Single-iteration segment (deltas never observed): pattern is
			// irrelevant for playback; intern zeroes so every segment has one.
			for j := range delta {
				delta[j] = 0
			}
			segPat = intern(delta)
		}
		s.segs = append(s.segs, rleSeg{count: segCount, pat: segPat})
		segCount, segPat = 0, -1
	}
	err := spec.IterSpace.Points(func(pt []int64) bool {
		for i := range fns {
			cur[i], idxBuf = fns[i].addr(am, pt, idxBuf)
		}
		switch {
		case firstIter:
			firstIter = false
			s.starts = append(s.starts, cur...)
			segCount = 1
		default:
			for j := range delta {
				delta[j] = cur[j] - prev[j]
			}
			if segPat < 0 {
				// Second iteration of a segment fixes its pattern.
				segPat = intern(delta)
				segCount++
			} else if patMatches(s.pats, segPat, nrefs, delta) {
				segCount++
			} else {
				closeSeg()
				s.starts = append(s.starts, cur...)
				segCount = 1
			}
		}
		prev, cur = cur, prev
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: process %s: %w", spec.Name, err)
	}
	closeSeg()

	s.cumIters = make([]int64, len(s.segs)+1)
	for i, seg := range s.segs {
		s.cumIters[i+1] = s.cumIters[i] + seg.count
	}
	return s, nil
}

// patMatches reports whether pattern p equals delta.
func patMatches(pats []int64, p int32, nrefs int, delta []int64) bool {
	off := int(p) * nrefs
	for j, d := range delta {
		if pats[off+j] != d {
			return false
		}
	}
	return true
}

// RLECursor walks a run-length-encoded stream access by access: for
// each iteration of each segment, each reference in program order.
// The position is the (segment, iteration-in-segment, reference) triple,
// so preemptive schedulers can stop a process mid-iteration and resume
// it later, possibly on a different core.
type RLECursor struct {
	spec *prog.ProcessSpec
	s    *RLEStream
	seg  int
	iter int64
	ref  int
}

// NewRLECursor returns a cursor at the start of the process's encoded
// stream.
func (g *Generator) NewRLECursor(spec *prog.ProcessSpec) (*RLECursor, error) {
	s, err := g.RLE(spec)
	if err != nil {
		return nil, err
	}
	return &RLECursor{spec: spec, s: s}, nil
}

// Spec returns the process being traced.
func (c *RLECursor) Spec() *prog.ProcessSpec { return c.spec }

// Stream returns the underlying encoded stream.
func (c *RLECursor) Stream() *RLEStream { return c.s }

// Pos returns the cursor position: current segment, iteration within it,
// and reference within the iteration.
func (c *RLECursor) Pos() (seg int, iter int64, ref int) { return c.seg, c.iter, c.ref }

// Seek commits a position previously derived from Pos and the stream's
// segment shapes. The triple must be normalized: 0 ≤ ref < NRefs, 0 ≤
// iter < the segment's count, and seg ≤ NumSegs (seg == NumSegs with
// iter == ref == 0 is the end-of-stream position).
func (c *RLECursor) Seek(seg int, iter int64, ref int) {
	c.seg, c.iter, c.ref = seg, iter, ref
}

// Next returns the next access; ok is false at end of stream.
func (c *RLECursor) Next() (Access, bool) {
	if c.seg >= len(c.s.segs) {
		return Access{}, false
	}
	seg := c.s.segs[c.seg]
	nrefs := c.s.nrefs
	f := c.s.flags[c.ref]
	addr := c.s.starts[c.seg*nrefs+c.ref] + c.iter*c.s.pats[int(seg.pat)*nrefs+c.ref]
	acc := Access{
		Addr:    addr,
		Write:   f&FlagWrite != 0,
		NewIter: f&FlagNewIter != 0,
	}
	c.ref++
	if c.ref == nrefs {
		c.ref = 0
		c.iter++
		if c.iter == seg.count {
			c.iter = 0
			c.seg++
		}
	}
	return acc, true
}

// Done reports whether the stream is exhausted.
func (c *RLECursor) Done() bool { return c.seg >= len(c.s.segs) }

// consumed returns the number of accesses already executed.
func (c *RLECursor) consumed() int64 {
	iters := c.s.cumIters[min(c.seg, len(c.s.segs))]
	return (iters+c.iter)*int64(c.s.nrefs) + int64(c.ref)
}

// Remaining returns the number of accesses left in the stream.
func (c *RLECursor) Remaining() int64 { return c.s.Len() - c.consumed() }

// Total returns the total number of accesses in the full stream.
func (c *RLECursor) Total() int64 { return c.s.Len() }

// Reset rewinds the cursor to the start of the stream.
func (c *RLECursor) Reset() { c.seg, c.iter, c.ref = 0, 0, 0 }
