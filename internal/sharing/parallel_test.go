package sharing

import (
	"fmt"
	"reflect"
	"testing"

	"locsched/internal/eset"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// matricesEqual compares two matrices cell by cell over the union of
// their IDs.
func matricesEqual(t *testing.T, want, got *Matrix) {
	t.Helper()
	wids, gids := want.IDs(), got.IDs()
	if len(wids) != len(gids) {
		t.Fatalf("matrix size: want %d processes, got %d", len(wids), len(gids))
	}
	for i, id := range wids {
		if gids[i] != id {
			t.Fatalf("matrix order: position %d want %v, got %v", i, id, gids[i])
		}
	}
	for _, a := range wids {
		for _, b := range wids {
			if w, g := want.Shared(a, b), got.Shared(a, b); w != g {
				t.Fatalf("Shared(%v,%v): want %d, got %d", a, b, w, g)
			}
		}
	}
}

// xlGraph builds a generated multi-program mix EPG (tasks share nothing
// across task boundaries — the large-scale scenario shape).
func xlGraph(t testing.TB, tasks int) *taskgraph.Graph {
	t.Helper()
	apps, err := workload.BuildMany(tasks, workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := workload.Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMatrixParallelMatchesSequential: the blocked, parallel construction
// is bit-identical to the sequential oracle for every Table 1
// application and for generated XL mixes, at several worker counts.
func TestMatrixParallelMatchesSequential(t *testing.T) {
	var graphs []*taskgraph.Graph
	var labels []string
	for _, name := range workload.Names() {
		app, err := workload.Build(name, 0, workload.Params{Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, app.Graph)
		labels = append(labels, name)
	}
	allApps, err := workload.BuildAll(workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix, _, err := workload.Combine(allApps...)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, mix, xlGraph(t, 8))
	labels = append(labels, "mix6", "xl8")

	for gi, g := range graphs {
		seq, err := sequentialMatrix(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", labels[gi], workers), func(t *testing.T) {
				par, err := ComputeMatrixParallel(g, workers)
				if err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, seq, par)
			})
		}
	}
}

// TestMatrixParallelDeterminism512: at the 512-core scenario scale (a
// 128-task generated mix), the blocked construction is deterministic
// across worker counts — Workers=1 and Workers=4 produce bit-identical
// matrices (and the sequential oracle agrees).
func TestMatrixParallelDeterminism512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-core scenario mix in -short mode")
	}
	g := xlGraph(t, 128)
	w1, err := ComputeMatrixParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	w4, err := ComputeMatrixParallel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, w1, w4)
	seq, err := sequentialMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, seq, w4)
}

// TestMatrixParallelSharedAnalyzer: MatrixParallel reuses (and fills) the
// analyzer's data-space memo, so a second construction on the same
// analyzer recomputes nothing, and both agree with the oracle.
func TestMatrixParallelSharedAnalyzer(t *testing.T) {
	app, err := workload.Build("Usonic", 0, workload.Params{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer()
	par, err := an.MatrixParallel(app.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.cache) != app.Graph.Len() {
		t.Fatalf("memo holds %d data spaces, want %d", len(an.cache), app.Graph.Len())
	}
	memo := make(map[*prog.ProcessSpec]DataSpace, len(an.cache))
	for spec, ds := range an.cache {
		memo[spec] = ds
	}
	again, err := an.MatrixParallel(app.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	for spec, ds := range an.cache {
		if reflect.ValueOf(ds).UnsafePointer() != reflect.ValueOf(memo[spec]).UnsafePointer() {
			t.Fatalf("%s: second construction recomputed the data space", spec.Name)
		}
	}
	seq, err := sequentialMatrix(app.Graph)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, seq, par)
	matricesEqual(t, seq, again)
}

// TestDataSpaceDedupMatchesEnumeration: the analyzer's content-deduplicated
// data spaces equal fresh enumerations for every process of a generated
// mix whose tasks repeat app templates, and content-equal array groups
// of different tasks share one element set.
func TestDataSpaceDedupMatchesEnumeration(t *testing.T) {
	g := xlGraph(t, 12)
	an := NewAnalyzer()
	shared := 0
	seen := make(map[*eset.Set]*prog.Array)
	for _, p := range g.Processes() {
		got, err := an.DataSpace(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ComputeDataSpace(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d arrays, want %d", p.Spec.Name, len(got), len(want))
		}
		for arr, ws := range want {
			gs, ok := got[arr]
			if !ok || !gs.Equal(ws) {
				t.Fatalf("%s: array %s: deduplicated set differs from enumeration", p.Spec.Name, arr.Name)
			}
			if prev, ok := seen[gs]; ok && prev != arr {
				shared++
			}
			seen[gs] = arr
		}
	}
	if shared == 0 {
		t.Error("no element set was shared across content-equal arrays")
	}
}

// TestMatrixIndexAccessors: Index/SharedAt agree with Shared for every
// pair, and Index rejects unknown processes.
func TestMatrixIndexAccessors(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.IDs() {
		i, ok := m.Index(a)
		if !ok {
			t.Fatalf("Index(%v): not found", a)
		}
		for _, b := range m.IDs() {
			j, _ := m.Index(b)
			if m.SharedAt(i, j) != m.Shared(a, b) {
				t.Fatalf("SharedAt(%d,%d) = %d != Shared(%v,%v) = %d",
					i, j, m.SharedAt(i, j), a, b, m.Shared(a, b))
			}
		}
	}
	if _, ok := m.Index(taskgraph.ProcID{Task: 99, Idx: 0}); ok {
		t.Error("Index of unknown process reported ok")
	}
}
