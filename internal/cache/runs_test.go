package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// runsTestOptions are the cache variants the batched entry points are
// differentially checked under.
func runsTestOptions() map[string][]Option {
	return map[string][]Option{
		"plain":           nil,
		"classified":      {WithClassification()},
		"classified-fifo": {WithClassification(), WithReplacement(FIFO)},
		"writeback":       {WithClassification(), WithWritePolicy(WriteBack)},
	}
}

// drain compares two caches by observable behaviour: a deterministic
// probe stream must classify identically (the probe stresses evictions,
// so diverging recency or shadow state surfaces as a different class).
func drain(t *testing.T, name string, a, b *Cache) {
	t.Helper()
	if msg := diverge(a, b, 20000, 1<<16); msg != "" {
		t.Fatalf("%s: %s", name, msg)
	}
}

// diverge runs the same seeded probe stream of n accesses over
// addresses [0, span) on a (the bulk cache) and b (the per-access one)
// and describes the first difference in classification, writeback or
// final stats; "" when there is none.
func diverge(a, b *Cache, n int, span int64) string {
	if a.Stats() != b.Stats() {
		return fmt.Sprintf("stats diverge: bulk %+v, per-access %+v", a.Stats(), b.Stats())
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		addr := rng.Int63n(span)
		write := rng.Intn(4) == 0
		ca, wa := a.AccessRW(addr, write)
		cb, wb := b.AccessRW(addr, write)
		if ca != cb || wa != wb {
			return fmt.Sprintf("probe %d (addr %d): bulk cache says (%v,%v), per-access says (%v,%v)",
				i, addr, ca, wa, cb, wb)
		}
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		return fmt.Sprintf("stats diverge after probe: bulk %+v, per-access %+v", a.Stats(), b.Stats())
	}
	return ""
}

// TestAccessRunMatchesPerAccess: AccessRun(addr, n, w) is
// indistinguishable — stats and subsequent behaviour — from n AccessRW
// calls within the same block.
func TestAccessRunMatchesPerAccess(t *testing.T) {
	geom := Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}
	for name, opts := range runsTestOptions() {
		t.Run(name, func(t *testing.T) {
			bulk := MustNew(geom, opts...)
			ref := MustNew(geom, opts...)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				base := int64(rng.Intn(1<<14)) &^ 31 // block-aligned
				stride := int64(rng.Intn(3) + 1)
				count := int64(rng.Intn(int(32/stride)) + 1) // stays in block
				write := rng.Intn(3) == 0
				ca, wa := bulk.AccessRun(base, count, write)
				var cb MissClass
				var wb bool
				for k := int64(0); k < count; k++ {
					ck, wk := ref.AccessRW(base+k*stride, write)
					if k == 0 {
						cb, wb = ck, wk
					} else if ck != Hit || wk {
						t.Fatalf("run access %d not a clean hit: %v %v", k, ck, wk)
					}
				}
				if ca != cb || wa != wb {
					t.Fatalf("run %d: AccessRun (%v,%v) != per-access (%v,%v)", i, ca, wa, cb, wb)
				}
			}
			drain(t, name, bulk, ref)
		})
	}
}

// TestTryAccessHitItersMatchesPerAccess: a successful fast-forward is
// indistinguishable from per-access replay of the same iterations, under
// random interleaved traffic, mixed residency (forcing refusals), and
// duplicate blocks within a group.
func TestTryAccessHitItersMatchesPerAccess(t *testing.T) {
	geom := Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}
	for name, opts := range runsTestOptions() {
		t.Run(name, func(t *testing.T) {
			bulk := MustNew(geom, opts...)
			ref := MustNew(geom, opts...)
			rng := rand.New(rand.NewSource(11))
			var refused, applied int
			for i := 0; i < 3000; i++ {
				// Random interleaved traffic.
				for k := rng.Intn(6); k > 0; k-- {
					addr := int64(rng.Intn(1 << 14))
					w := rng.Intn(4) == 0
					bulk.AccessRW(addr, w)
					ref.AccessRW(addr, w)
				}
				// A reference group: some blocks touched (likely resident),
				// sometimes a cold one (forcing refusal), sometimes a
				// duplicate.
				r := rng.Intn(4) + 1
				blocks := make([]int64, r)
				writes := make([]bool, r)
				for j := range blocks {
					b := int64(rng.Intn(1 << 9))
					if rng.Intn(3) > 0 {
						// Touch it so it's resident on both caches.
						bulk.AccessRW(b*32, false)
						ref.AccessRW(b*32, false)
					}
					if j > 0 && rng.Intn(5) == 0 {
						b = blocks[j-1]
					}
					blocks[j] = b
					writes[j] = rng.Intn(3) == 0
				}
				iters := int64(rng.Intn(12) + 1)
				ok := bulk.TryAccessHitIters(blocks, writes, iters)
				if ok {
					applied++
					for it := int64(0); it < iters; it++ {
						for j := range blocks {
							if c, _ := ref.AccessRW(blocks[j]*32, writes[j]); c != Hit {
								t.Fatalf("iteration %d ref %d: per-access replay missed (%v) where bulk fast-forwarded", it, j, c)
							}
						}
					}
				} else {
					refused++
				}
			}
			if applied == 0 || refused == 0 {
				t.Fatalf("degenerate coverage: %d applied, %d refused", applied, refused)
			}
			drain(t, name, bulk, ref)
		})
	}
}

// TestTryAccessHitItersRefusalUntouched: a refused fast-forward leaves
// every counter and all cache state alone.
func TestTryAccessHitItersRefusalUntouched(t *testing.T) {
	c := MustNew(Geometry{Size: 1 << 10, BlockSize: 32, Assoc: 2}, WithClassification())
	c.AccessRW(0, false)
	before := c.Stats()
	if c.TryAccessHitIters([]int64{999}, []bool{false}, 5) {
		t.Fatal("fast-forward of a non-resident block succeeded")
	}
	if c.Stats() != before {
		t.Fatalf("refusal mutated stats: %+v -> %+v", before, c.Stats())
	}
	if !c.Contains(0) {
		t.Fatal("refusal disturbed cache contents")
	}
}

// TestBatchedEntryPointsZeroAlloc: the batched paths stay allocation-free
// in steady state, like AccessRW.
func TestBatchedEntryPointsZeroAlloc(t *testing.T) {
	c := MustNew(benchGeom(), WithClassification())
	warm(c, 64<<10)
	blocks := []int64{0, 64, 128}
	writes := []bool{false, true, false}
	for _, b := range blocks {
		c.AccessRW(b*32, false)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		c.AccessRun(0, 8, false)
		if !c.TryAccessHitIters(blocks, writes, 4) {
			t.Fatal("group not resident")
		}
	})
	if allocs != 0 {
		t.Errorf("batched entry points allocate %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkAccessRun measures resolving an 8-access same-block run in
// one call (the per-block cost of the coalesced engine), against the
// 8×AccessRW equivalent in BenchmarkCacheAccess*.
func BenchmarkAccessRun(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	const span = 64 << 10
	warm(c, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRun(int64(i)*32%span, 8, false)
	}
	b.ReportMetric(8, "accesses/op")
}

// BenchmarkAccessHitIters measures fast-forwarding 8 iterations of a
// 3-reference group (24 accesses) in one call.
func BenchmarkAccessHitIters(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	warm(c, 64<<10)
	blocks := []int64{0, 64, 128}
	writes := []bool{false, true, false}
	for _, blk := range blocks {
		c.AccessRW(blk*32, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.TryAccessHitIters(blocks, writes, 8) {
			b.Fatal("group not resident")
		}
	}
	b.ReportMetric(24, "accesses/op")
}

// BenchmarkRepeatIters measures replaying 8 iterations of a 3-reference
// group that thrashes one set (24 accesses) in one call, the per-window
// cost of a conflict-bound window once its warm-up has run.
func BenchmarkRepeatIters(b *testing.B) {
	c := MustNew(benchGeom(), WithClassification())
	warm(c, 64<<10)
	sets := benchGeom().NumSets()
	blocks := []int64{0, sets, 2 * sets} // three blocks, one 2-way set
	var before Stats
	for w := c.RepeatWarmup(); w > 0; w-- {
		before = c.Stats()
		for _, blk := range blocks {
			c.AccessRW(blk*32, false)
		}
	}
	perIter := c.Stats().Sub(before)
	if perIter.Hits == perIter.Accesses {
		b.Fatal("group does not thrash")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.RepeatIters(blocks, perIter, 8) {
			b.Fatal("replay refused")
		}
	}
	b.ReportMetric(24, "accesses/op")
}

// repeatBlockSize is the block size of the 4-line caches RepeatIters is
// checked on: small enough that random groups both thrash and fit.
const repeatBlockSize = 16

// blockAccess is one access to a whole block.
type blockAccess struct {
	block int64
	write bool
}

// repeatGeom is a 4-line cache: small enough that random groups both
// thrash and fit.
func repeatGeom(assoc int) Geometry {
	return Geometry{Size: 4 * repeatBlockSize, BlockSize: repeatBlockSize, Assoc: assoc}
}

// replayRepeat resets two equal caches, drives the prior traffic and
// then warmup full iterations of the group through both per access, and
// then runs iters further iterations: per access on ref, and on bulk by
// RepeatIters from the stats delta of the last warm-up iteration, which
// it returns.
func replayRepeat(t *testing.T, bulk, ref *Cache, prior, group []blockAccess, warmup int, iters int64) (perIter Stats) {
	t.Helper()
	bulk.Reset()
	ref.Reset()
	both := func(a blockAccess) {
		bulk.AccessRW(a.block*repeatBlockSize, a.write)
		ref.AccessRW(a.block*repeatBlockSize, a.write)
	}
	for _, a := range prior {
		both(a)
	}
	for w := 0; w < warmup; w++ {
		before := bulk.Stats()
		for _, a := range group {
			both(a)
		}
		perIter = bulk.Stats().Sub(before)
	}
	blocks := make([]int64, len(group))
	for j, a := range group {
		blocks[j] = a.block
	}
	if !bulk.RepeatIters(blocks, perIter, iters) {
		t.Fatalf("RepeatIters refused an LRU cache")
	}
	for it := int64(0); it < iters; it++ {
		for _, a := range group {
			ref.AccessRW(a.block*repeatBlockSize, a.write)
		}
	}
	return perIter
}

// checkRepeat is replayRepeat on fresh caches of the given variant,
// followed by a probe that must find bulk and ref indistinguishable.
func checkRepeat(t *testing.T, opts []Option, assoc int, prior, group []blockAccess, warmup int, iters int64) string {
	t.Helper()
	bulk, ref := MustNew(repeatGeom(assoc), opts...), MustNew(repeatGeom(assoc), opts...)
	replayRepeat(t, bulk, ref, prior, group, warmup, iters)
	return diverge(bulk, ref, 64, 16*repeatBlockSize)
}

// repeatOptions are the LRU variants RepeatIters replays.
func repeatOptions() map[string][]Option {
	opts := runsTestOptions()
	delete(opts, "classified-fifo")
	return opts
}

// TestRepeatItersMatchesPerAccess: after RepeatWarmup full iterations
// per access, replaying further iterations of a group from the last
// one's stats delta is indistinguishable from simulating them — stats
// and all later behaviour — for random groups with duplicate blocks,
// random prior traffic drawn partly from the group, direct-mapped and
// 2-way 4-line caches, with and without classification and write-back.
func TestRepeatItersMatchesPerAccess(t *testing.T) {
	for name, opts := range repeatOptions() {
		for _, assoc := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dway", name, assoc), func(t *testing.T) {
				bulk, ref := MustNew(repeatGeom(assoc), opts...), MustNew(repeatGeom(assoc), opts...)
				warmup := bulk.RepeatWarmup()
				rng := rand.New(rand.NewSource(13))
				var thrashing, writebacks int
				for trial := 0; trial < 5000; trial++ {
					group := make([]blockAccess, rng.Intn(5)+1)
					for j := range group {
						group[j] = blockAccess{int64(rng.Intn(12)), rng.Intn(3) == 0}
						if j > 0 && rng.Intn(4) == 0 {
							group[j].block = group[rng.Intn(j)].block
						}
					}
					prior := make([]blockAccess, rng.Intn(8))
					for i := range prior {
						prior[i] = blockAccess{int64(rng.Intn(12)), rng.Intn(2) == 0}
						if rng.Intn(2) == 0 {
							prior[i].block = group[rng.Intn(len(group))].block
						}
					}
					perIter := replayRepeat(t, bulk, ref, prior, group, warmup, int64(rng.Intn(10)+1))
					if perIter.Hits < perIter.Accesses {
						thrashing++
					}
					if perIter.Writebacks > 0 {
						writebacks++
					}
					if msg := diverge(bulk, ref, 64, 16*repeatBlockSize); msg != "" {
						t.Fatalf("trial %d (prior %v, group %v): %s", trial, prior, group, msg)
					}
				}
				if thrashing == 0 {
					t.Fatal("no trial replayed a thrashing group")
				}
				if name == "writeback" && writebacks == 0 {
					t.Fatal("no write-back trial replayed writebacks")
				}
			})
		}
	}
}

// TestRepeatItersWritebackWarmup pins why write-back needs a third
// warm-up iteration. In one 2-way set, v is written before the window
// and is MRU; the read-only group [a, v, b] then thrashes. Iteration 1
// hits v and keeps it dirty; iteration 2 evicts the dirty v (one
// writeback) and refills it clean; iteration 3 and every later one
// write nothing back. Replaying from iteration 2's delta would count a
// writeback per replayed iteration.
func TestRepeatItersWritebackWarmup(t *testing.T) {
	const a, v, b = 0, 2, 4 // even blocks: all in set 0 of 2
	opts := repeatOptions()["writeback"]
	prior := []blockAccess{{v, true}}
	group := []blockAccess{{a, false}, {v, false}, {b, false}}
	bulk, ref := MustNew(repeatGeom(2), opts...), MustNew(repeatGeom(2), opts...)
	for warmup, want := range map[int]int64{1: 0, 2: 1, 3: 0} {
		if perIter := replayRepeat(t, bulk, ref, prior, group, warmup, 1); perIter.Writebacks != want {
			t.Errorf("iteration %d wrote back %d lines, want %d", warmup, perIter.Writebacks, want)
		}
	}
	if w := bulk.RepeatWarmup(); w != 3 {
		t.Fatalf("write-back RepeatWarmup = %d, want 3", w)
	}
	if msg := checkRepeat(t, opts, 2, prior, group, 3, 5); msg != "" {
		t.Fatalf("warm-up 3: %s", msg)
	}
	if checkRepeat(t, opts, 2, prior, group, 2, 5) == "" {
		t.Fatal("warm-up 2 replayed exactly; the pinned counterexample no longer distinguishes 2 from 3")
	}
}

// TestRepeatItersRefusesNonLRU: FIFO and random replacement admit no
// fixed-point replay; RepeatWarmup reports 0 and RepeatIters refuses,
// leaving the cache untouched.
func TestRepeatItersRefusesNonLRU(t *testing.T) {
	for _, repl := range []Replacement{FIFO, RandomRepl} {
		c := MustNew(repeatGeom(2), WithClassification(), WithReplacement(repl))
		c.AccessRW(0, false)
		before := c.Stats()
		if w := c.RepeatWarmup(); w != 0 {
			t.Errorf("%v: RepeatWarmup = %d, want 0", repl, w)
		}
		if c.RepeatIters([]int64{0}, Stats{Accesses: 1, Hits: 1}, 4) {
			t.Errorf("%v: RepeatIters accepted", repl)
		}
		if c.Stats() != before {
			t.Errorf("%v: refusal mutated stats: %+v -> %+v", repl, before, c.Stats())
		}
	}
}

// FuzzRepeatIters checks the RepeatIters contract on fuzzed groups and
// prior traffic. mode picks the variant (plain, classified, writeback)
// and the associativity (1 or 2); data[0] sets the group size (1–5), the
// next bytes the group and the rest the prior traffic, one access per
// byte: block = (byte>>1)%12, write = byte&1.
func FuzzRepeatIters(f *testing.F) {
	f.Add(byte(5), byte(4), []byte{2, 0, 4, 8, 5}) // TestRepeatItersWritebackWarmup
	f.Add(byte(2), byte(7), []byte{4, 1, 3, 0, 2, 8, 3, 3, 6})
	f.Add(byte(0), byte(1), []byte{1, 0, 2})
	f.Add(byte(4), byte(9), []byte{3, 1, 9, 17, 5, 1, 7})
	names := []string{"plain", "classified", "writeback"}
	f.Fuzz(func(t *testing.T, mode, iters byte, data []byte) {
		if len(data) == 0 {
			return
		}
		r := int(data[0]%5) + 1
		if len(data) < 1+r {
			return
		}
		decode := func(bs []byte) []blockAccess {
			out := make([]blockAccess, len(bs))
			for i, x := range bs {
				out[i] = blockAccess{int64(x>>1) % 12, x&1 == 1}
			}
			return out
		}
		group, prior := decode(data[1:1+r]), decode(data[1+r:])
		opts := repeatOptions()[names[int(mode)%3]]
		assoc := int(mode/3)%2 + 1
		warmup := MustNew(repeatGeom(assoc), opts...).RepeatWarmup()
		if msg := checkRepeat(t, opts, assoc, prior, group, warmup, int64(iters%16)+1); msg != "" {
			t.Fatalf("prior %v, group %v: %s", prior, group, msg)
		}
	})
}
