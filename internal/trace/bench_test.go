package trace

import (
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/workload"
)

func benchSpec() (*prog.ProcessSpec, layout.AddressMap) {
	arr := prog.MustArray("A", 4, 1<<20)
	iter := prog.Seg("i", 0, 4096)
	spec := prog.MustProcessSpec("p", iter, 1,
		prog.StreamRef(arr, prog.Read, iter, 1, 0),
		prog.StreamRef(arr, prog.Write, iter, 2, 64),
	)
	return spec, layout.MustPack(32, arr)
}

// TestCursorNextZeroAlloc asserts steady-state RLECursor.Next allocates
// nothing while crossing segment boundaries: a relayouted array splits
// the stream into one segment per half-page seam.
func TestCursorNextZeroAlloc(t *testing.T) {
	arr := prog.MustArray("A", 4, 1<<14)
	iter := prog.Seg("i", 0, 1<<14)
	spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 1, 0))
	geom := testGeomFor()
	rl, err := layout.ApplyRelayout(layout.MustPack(32, arr), geom, map[*prog.Array]int64{arr: geom.PageSize() / 2})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewGenerator(rl).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := cur.Stream().NumSegs(); n < 8 {
		t.Fatalf("relayouted stream has %d segments, want many", n)
	}
	allocs := testing.AllocsPerRun(50000, func() {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("RLECursor.Next allocates %.1f objects/op across segments, want 0", allocs)
	}
}

// BenchmarkTraceCompileRLE measures compiling one (spec, address map)
// pair into the strided run-length encoding, bypassing the caches, and
// reports the resident bytes of both stream forms (the stream-memory
// reduction the encoding buys).
func BenchmarkTraceCompileRLE(b *testing.B) {
	spec, am := benchSpec()
	flat, err := compile(spec, am)
	if err != nil {
		b.Fatal(err)
	}
	var s *RLEStream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err = compileRLE(spec, am)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Len()), "accesses")
	b.ReportMetric(float64(flat.MemBytes()), "flat_bytes")
	b.ReportMetric(float64(s.MemBytes()), "rle_bytes")
}

// BenchmarkTraceCompileRLECached measures the cross-run path: the
// encoding is already in the package cache, so a fresh generator only
// pays the signature lookup.
func BenchmarkTraceCompileRLECached(b *testing.B) {
	spec, am := benchSpec()
	if _, err := NewGenerator(am).RLE(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGenerator(am).RLE(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLECursorNext measures per-access consumption of the encoded
// stream (the differential-test path; the simulator consumes whole runs
// instead).
func BenchmarkRLECursorNext(b *testing.B) {
	spec, am := benchSpec()
	cur, err := NewGenerator(am).NewRLECursor(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	}
}

// BenchmarkStreamMemory reports the resident compiled-stream bytes of
// the whole Table 1 suite (scale 2) under the packed base layout in the
// strided RLE encoding and in the flat oracle form it replaced: the ≥4×
// reduction criterion, measured.
func BenchmarkStreamMemory(b *testing.B) {
	apps, err := workload.BuildAll(workload.Params{Scale: 2})
	if err != nil {
		b.Fatal(err)
	}
	var flatBytes, rleBytes int64
	for i := 0; i < b.N; i++ {
		flatBytes, rleBytes = 0, 0
		for _, app := range apps {
			base, err := layout.Pack(32, app.Arrays...)
			if err != nil {
				b.Fatal(err)
			}
			gen := NewGenerator(base)
			for _, p := range app.Graph.Processes() {
				flat, err := gen.Stream(p.Spec)
				if err != nil {
					b.Fatal(err)
				}
				rle, err := gen.RLE(p.Spec)
				if err != nil {
					b.Fatal(err)
				}
				flatBytes += flat.MemBytes()
				rleBytes += rle.MemBytes()
			}
		}
	}
	b.ReportMetric(float64(flatBytes), "flat_bytes")
	b.ReportMetric(float64(rleBytes), "rle_bytes")
	b.ReportMetric(float64(flatBytes)/float64(rleBytes), "reduction×")
}
