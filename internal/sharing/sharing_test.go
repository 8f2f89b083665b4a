package sharing

import (
	"strings"
	"testing"

	"locsched/internal/presburger"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// figure1Task builds Prog1 of the paper's Figure 1: eight processes, each
// running for(i2=0; i2<3000; i2++) B[i1] += A[i1*1000+i2][5] with i1 = k.
// elem=1 keeps the sharing-matrix entries equal to the paper's element
// counts.
func figure1Task(t *testing.T) *taskgraph.Graph {
	t.Helper()
	a := prog.MustArray("A", 1, 16000, 10)
	bArr := prog.MustArray("B", 1, 8)
	g := taskgraph.New()
	for k := int64(0); k < 8; k++ {
		iter := prog.Seg("i2", 0, 3000)
		sp := iter.Space()
		spec := prog.MustProcessSpec(
			"Prog1.P"+string(rune('0'+k)),
			iter,
			1,
			prog.Ref2D(a, prog.Read, sp, []int64{1}, k*1000, nil, 5),
			prog.Ref1D(bArr, prog.Write, sp, nil, int64(k)),
		)
		if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: int(k)}, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestFigure2Matrix reproduces the paper's Figure 2(a): the amount of data
// shared between processes k and p of Prog1 is 2000 elements for
// |k-p| = 1, 1000 for |k-p| = 2, and 0 beyond (plus one shared B element
// only for k = p, which is on the diagonal).
func TestFigure2Matrix(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatalf("ComputeMatrix: %v", err)
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d, want 8", m.Len())
	}
	for k := 0; k < 8; k++ {
		for p := 0; p < 8; p++ {
			got := m.Shared(taskgraph.ProcID{Task: 0, Idx: k}, taskgraph.ProcID{Task: 0, Idx: p})
			var want int64
			diff := k - p
			if diff < 0 {
				diff = -diff
			}
			switch diff {
			case 0:
				want = 3000 + 1 // own footprint: 3000 A elements + 1 B element
			case 1:
				want = 2000
			case 2:
				want = 1000
			default:
				want = 0
			}
			if got != want {
				t.Errorf("M[%d][%d] = %d, want %d", k, p, got, want)
			}
		}
	}
}

func TestMatrixSymmetric(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	ids := m.IDs()
	for _, a := range ids {
		for _, b := range ids {
			if m.Shared(a, b) != m.Shared(b, a) {
				t.Errorf("matrix not symmetric at %v,%v", a, b)
			}
		}
	}
}

func TestSharedUnknownProcess(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shared(taskgraph.ProcID{Task: 9, Idx: 9}, m.IDs()[0]) != 0 {
		t.Error("unknown process should share 0")
	}
}

func TestTotalSharing(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	p0 := taskgraph.ProcID{Task: 0, Idx: 0}
	// P0 shares 2000 with P1 and 1000 with P2.
	got := m.TotalSharing(p0, m.IDs())
	if got != 3000 {
		t.Errorf("TotalSharing(P0) = %d, want 3000", got)
	}
	// Middle process P3 shares with P1,P2,P4,P5: 1000+2000+2000+1000.
	p3 := taskgraph.ProcID{Task: 0, Idx: 3}
	got = m.TotalSharing(p3, m.IDs())
	if got != 6000 {
		t.Errorf("TotalSharing(P3) = %d, want 6000", got)
	}
}

func TestMaxSharingPartner(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	p0 := taskgraph.ProcID{Task: 0, Idx: 0}
	best, val, ok := m.MaxSharingPartner(p0, m.IDs())
	if !ok {
		t.Fatal("MaxSharingPartner should find a partner")
	}
	if best != (taskgraph.ProcID{Task: 0, Idx: 1}) || val != 2000 {
		t.Errorf("best partner of P0 = %v (%d), want P0.1 (2000)", best, val)
	}
	// Tie-break: P3's best partners are P2 and P4 (both 2000); smallest ID wins.
	p3 := taskgraph.ProcID{Task: 0, Idx: 3}
	best, val, ok = m.MaxSharingPartner(p3, m.IDs())
	if !ok || best != (taskgraph.ProcID{Task: 0, Idx: 2}) || val != 2000 {
		t.Errorf("best partner of P3 = %v (%d, %v), want P0.2 (2000)", best, val, ok)
	}
	// Empty candidates.
	if _, _, ok := m.MaxSharingPartner(p0, nil); ok {
		t.Error("no candidates should report !ok")
	}
	if _, _, ok := m.MaxSharingPartner(p0, []taskgraph.ProcID{p0}); ok {
		t.Error("candidates containing only self should report !ok")
	}
}

func TestElementSizeWeighting(t *testing.T) {
	// Two processes sharing 100 elements of a 4-byte array share 400 bytes.
	arr := prog.MustArray("A", 4, 1000)
	g := taskgraph.New()
	for k := int64(0); k < 2; k++ {
		iter := prog.Seg("i", k*100, k*100+200) // [0,200) and [100,300)
		spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(arr, prog.Read, iter, 1, 0))
		if err := g.AddProcess(&taskgraph.Process{ID: taskgraph.ProcID{Task: 0, Idx: int(k)}, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Shared(taskgraph.ProcID{Task: 0, Idx: 0}, taskgraph.ProcID{Task: 0, Idx: 1})
	if got != 400 {
		t.Errorf("shared bytes = %d, want 400 (100 elems × 4B)", got)
	}
	if m.Footprint(taskgraph.ProcID{Task: 0, Idx: 0}) != 800 {
		t.Errorf("footprint = %d, want 800", m.Footprint(taskgraph.ProcID{Task: 0, Idx: 0}))
	}
}

func TestNoSharingAcrossDifferentArrays(t *testing.T) {
	// Prog1 uses A, Prog2 uses D: no sharing between their processes
	// (the paper's motivation for the data-mapping phase).
	a := prog.MustArray("A", 4, 1000)
	d := prog.MustArray("D", 4, 1000)
	g := taskgraph.New()
	iter1 := prog.Seg("i", 0, 500)
	iter2 := prog.Seg("i", 0, 500)
	if err := g.AddProcess(&taskgraph.Process{
		ID:   taskgraph.ProcID{Task: 0, Idx: 0},
		Spec: prog.MustProcessSpec("p1", iter1, 0, prog.StreamRef(a, prog.Read, iter1, 1, 0)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProcess(&taskgraph.Process{
		ID:   taskgraph.ProcID{Task: 1, Idx: 0},
		Spec: prog.MustProcessSpec("p2", iter2, 0, prog.StreamRef(d, prog.Read, iter2, 1, 0)),
	}); err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shared(taskgraph.ProcID{Task: 0, Idx: 0}, taskgraph.ProcID{Task: 1, Idx: 0}); got != 0 {
		t.Errorf("cross-array sharing = %d, want 0", got)
	}
}

func TestAnalyzerMemoizes(t *testing.T) {
	a := prog.MustArray("A", 4, 1000)
	iter := prog.Seg("i", 0, 100)
	spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(a, prog.Read, iter, 1, 0))
	an := NewAnalyzer()
	d1, err := an.DataSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := an.DataSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1[a] != d2[a] {
		t.Error("analyzer should return the memoized data space")
	}
}

func TestDataSpaceMultipleRefsSameArray(t *testing.T) {
	// A[i] and A[i+10] over [0,20) touch [0,30): 30 distinct elements.
	a := prog.MustArray("A", 4, 1000)
	iter := prog.Seg("i", 0, 20)
	spec := prog.MustProcessSpec("p", iter, 0,
		prog.StreamRef(a, prog.Read, iter, 1, 0),
		prog.StreamRef(a, prog.Read, iter, 1, 10),
	)
	ds, err := ComputeDataSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ds[a].Card() != 30 {
		t.Errorf("|DS| = %d, want 30", ds[a].Card())
	}
}

func TestDataSpaceUnboundedIterSpaceFails(t *testing.T) {
	a := prog.MustArray("A", 4, 1000)
	sp := presburger.MustSpace("i")
	unbounded := presburger.MustBasicSet(sp, presburger.GEZero(presburger.Var(1, 0)))
	spec := prog.MustProcessSpec("p", unbounded, 0,
		prog.Ref1D(a, prog.Read, sp, []int64{1}, 0))
	if _, err := ComputeDataSpace(spec); err == nil {
		t.Error("unbounded iteration space should fail")
	}
}

func TestMatrixString(t *testing.T) {
	g := figure1Task(t)
	m, err := ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "2000") || !strings.Contains(s, "P0.0") {
		t.Errorf("matrix rendering missing expected entries:\n%s", s)
	}
}
