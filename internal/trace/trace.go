// Package trace turns a process's static description (iteration space ×
// affine references) into the dynamic address stream the simulated cores
// execute. Cursors are resumable so that preemptive schedulers (the
// paper's RRS baseline) can stop a process mid-stream and continue it
// later, possibly on a different core.
//
// Streams are compiled: each (ProcessSpec, AddressMap) pair is walked
// once — affine maps applied, subscripts linearized, addresses resolved —
// into a strided run-length encoding (RLEStream), whose segments store
// one start address and one per-iteration delta per reference. Compiled
// streams are shared by all cursors of a generator, and — when the
// address map states its per-array addressing in closed form
// (layout.AddrCompiler) — across generators and runs through a bounded
// package-level cache, so repeated experiments pay compilation once.
package trace

import (
	"strconv"
	"sync"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

// Access is one memory reference of the stream.
type Access struct {
	Addr    int64
	Write   bool
	NewIter bool // first access of an iteration: charge compute cycles
}

// Flag bits of Stream.Flags.
const (
	// FlagWrite marks a store reference.
	FlagWrite byte = 1 << 0
	// FlagNewIter marks the first access of an iteration point.
	FlagNewIter byte = 1 << 1
)

// streamKey identifies a compiled stream across generators: the process
// plus the exact closed-form addressing of every reference. Entries
// retain their spec pointer, so a key can never alias a different
// (collected and reallocated) spec.
type streamKey struct {
	spec *prog.ProcessSpec
	sig  string
}

// boundedCache shares compiled streams across runs. It is bounded by
// entry count and by total resident bytes; once either bound is hit the
// cache is cleared wholesale — streams are cheap to recompile, the
// bounds only guard unbounded growth under churn.
type boundedCache struct {
	sync.Mutex
	m     map[streamKey]*RLEStream
	bytes int64
}

// lookup returns the cached stream for key, if any.
func (c *boundedCache) lookup(key streamKey) (*RLEStream, bool) {
	c.Lock()
	defer c.Unlock()
	s, ok := c.m[key]
	return s, ok
}

// add inserts s under key and returns the canonical entry: when a
// concurrent caller compiled the same stream first, its copy is adopted
// so the byte accounting stays exact.
func (c *boundedCache) add(key streamKey, s *RLEStream) *RLEStream {
	c.Lock()
	defer c.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if c.m == nil || len(c.m) >= maxCachedStreams || c.bytes+s.MemBytes() > maxCachedStreamBytes {
		c.m = make(map[streamKey]*RLEStream)
		c.bytes = 0
	}
	c.m[key] = s
	c.bytes += s.MemBytes()
	return s
}

const (
	// maxCachedStreams bounds the cache's entries. Large-scale mixes hold
	// hundreds of live specs at once (128-core Figure 7-XL runs ~600), so
	// the cap must comfortably exceed that or every run recompiles its
	// whole working set; the byte bound is what actually limits memory.
	maxCachedStreams     = 4096
	maxCachedStreamBytes = 256 << 20
)

// addrSignature returns a string uniquely describing the addressing of
// every reference of the spec under am, or ok=false when am cannot state
// it in closed form.
func addrSignature(spec *prog.ProcessSpec, am layout.AddressMap) (string, bool) {
	ac, ok := am.(layout.AddrCompiler)
	if !ok {
		return "", false
	}
	buf := make([]byte, 0, 16*len(spec.Refs))
	for _, ref := range spec.Refs {
		f, ok := ac.CompileAddr(ref.Array)
		if !ok {
			return "", false
		}
		buf = strconv.AppendInt(buf, f.Base, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Elem, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Page, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.Bank, 10)
		buf = append(buf, ';')
	}
	return string(buf), true
}

// Generator compiles and caches streams over process specs under a fixed
// address map. Compiled streams are shared by all cursors (so RRS re-runs
// and repeated experiments stay cheap).
type Generator struct {
	am   layout.AddressMap
	rles map[*prog.ProcessSpec]*RLEStream
}

// NewGenerator builds a generator over the address map.
func NewGenerator(am layout.AddressMap) *Generator {
	return &Generator{am: am, rles: make(map[*prog.ProcessSpec]*RLEStream)}
}

// AddressMap returns the generator's address map.
func (g *Generator) AddressMap() layout.AddressMap { return g.am }

// refFn is one reference's resolved address function: the closed-form
// formula when the map provides one, the interface call otherwise.
type refFn struct {
	ref  prog.Ref
	flag byte
	f    layout.AddrFormula
	fast bool
}

// addr resolves the reference's address at an iteration point; idxBuf is
// caller-owned scratch, returned for reuse.
func (fn *refFn) addr(am layout.AddressMap, pt, idxBuf []int64) (int64, []int64) {
	idxBuf = fn.ref.Map.Apply(pt, idxBuf)
	lin := fn.ref.Array.LinearIndex(idxBuf)
	if fn.fast {
		return fn.f.Addr(lin), idxBuf
	}
	return am.Addr(fn.ref.Array, lin), idxBuf
}

// resolveRefFns resolves every reference of the spec once against the
// address map, packing the per-access flag byte alongside.
func resolveRefFns(spec *prog.ProcessSpec, am layout.AddressMap) []refFn {
	fns := make([]refFn, len(spec.Refs))
	ac, hasAC := am.(layout.AddrCompiler)
	for i, ref := range spec.Refs {
		fns[i].ref = ref
		if ref.Kind == prog.Write {
			fns[i].flag = FlagWrite
		}
		if i == 0 {
			fns[i].flag |= FlagNewIter
		}
		if hasAC {
			if f, ok := ac.CompileAddr(ref.Array); ok {
				fns[i].f, fns[i].fast = f, true
			}
		}
	}
	return fns
}
