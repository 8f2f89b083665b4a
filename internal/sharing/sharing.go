// Package sharing computes the paper's inter-process data sharing sets
// (Section 2): the data space DS_k of process k is the set of array
// elements it touches (the image of its iteration space under its access
// maps), and the sharing set between processes k and p is
// SS_k,p = DS_k ∩ DS_p. The magnitudes |SS_k,p|, weighted by element
// size, form the sharing matrix of Figure 2(a) that drives the
// locality-aware scheduler.
package sharing

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"locsched/internal/eset"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

// DataSpace is the concrete footprint of one process: the set of
// linearized element indices it touches in each array.
type DataSpace map[*prog.Array]*eset.Set

// FootprintBytes returns the total footprint in bytes across all arrays.
func (d DataSpace) FootprintBytes() int64 {
	var n int64
	for arr, s := range d {
		n += s.Card() * arr.Elem
	}
	return n
}

// SharedBytes returns the number of bytes this data space shares with o:
// sum over common arrays of |DS_a ∩ DS'_a| × element size.
func (d DataSpace) SharedBytes(o DataSpace) int64 {
	var n int64
	for arr, s := range d {
		if os, ok := o[arr]; ok {
			n += s.IntersectCard(os) * arr.Elem
		}
	}
	return n
}

// ComputeDataSpace enumerates the process's iteration space once per
// reference and collects the touched element indices per array.
func ComputeDataSpace(spec *prog.ProcessSpec) (DataSpace, error) {
	builders := make(map[*prog.Array]*eset.Builder)
	idx := make([]int64, 0, 4)
	for _, ref := range spec.Refs {
		b, ok := builders[ref.Array]
		if !ok {
			b = eset.NewBuilder()
			builders[ref.Array] = b
		}
		arr := ref.Array
		m := ref.Map
		err := spec.IterSpace.Points(func(pt []int64) bool {
			idx = m.Apply(pt, idx)
			b.Add(arr.LinearIndex(idx))
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("sharing: process %s: %w", spec.Name, err)
		}
	}
	ds := make(DataSpace, len(builders))
	for arr, b := range builders {
		ds[arr] = b.Build()
	}
	return ds, nil
}

// Analyzer memoizes data spaces per process spec so that sharing matrices
// over large EPGs reuse footprint computations. An Analyzer is safe for
// concurrent use; the blocked matrix construction fans data-space
// computation out over a worker pool against a shared Analyzer.
type Analyzer struct {
	mu    sync.Mutex
	cache map[*prog.ProcessSpec]DataSpace
	// sets deduplicates per-array element sets by content (iteration
	// space, access maps, array shape): generated XL mixes repeat a few
	// app templates across hundreds of tasks, and every repetition's
	// sets are value-identical even though the array objects differ.
	sets map[string]*eset.Set
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		cache: make(map[*prog.ProcessSpec]DataSpace),
		sets:  make(map[string]*eset.Set),
	}
}

// DataSpace returns the (memoized) data space of the spec. Per-array
// element sets are shared with previously analyzed content-equal array
// groups, and only novel groups are enumerated. The result is
// value-identical to ComputeDataSpace; the sets are immutable and may be
// shared between data spaces.
func (a *Analyzer) DataSpace(spec *prog.ProcessSpec) (DataSpace, error) {
	a.mu.Lock()
	if ds, ok := a.cache[spec]; ok {
		a.mu.Unlock()
		return ds, nil
	}
	arrs := spec.Arrays()
	keys := make([]string, len(arrs))
	ds := make(DataSpace, len(arrs))
	complete := true
	for i, arr := range arrs {
		keys[i] = setKey(spec, arr)
		if s, ok := a.sets[keys[i]]; ok {
			ds[arr] = s
		} else {
			complete = false
		}
	}
	a.mu.Unlock()
	if !complete {
		full, err := ComputeDataSpace(spec)
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		for i, arr := range arrs {
			s, ok := full[arr]
			if !ok {
				continue
			}
			// First content-equal set wins so concurrent computes converge
			// on one shared value.
			if prior, ok := a.sets[keys[i]]; ok {
				s = prior
			} else {
				a.sets[keys[i]] = s
			}
			ds[arr] = s
		}
		a.mu.Unlock()
	}
	a.mu.Lock()
	// Concurrent computes of the same spec are idempotent; first store wins
	// so every caller observes one canonical DataSpace value.
	if prior, ok := a.cache[spec]; ok {
		ds = prior
	} else {
		a.cache[spec] = ds
	}
	a.mu.Unlock()
	return ds, nil
}

// setKey describes one array's element set by content: the iteration
// space, every access map targeting the array (in reference order), and
// the array's shape (dims drive LinearIndex; the element size is
// included for completeness). Two array groups with equal keys enumerate
// to value-identical sets, so the analyzer shares one immutable Set
// between them.
func setKey(spec *prog.ProcessSpec, arr *prog.Array) string {
	var b strings.Builder
	b.Grow(64)
	fmt.Fprintf(&b, "%s|%v/%d", spec.IterSpace, arr.Dims, arr.Elem)
	for _, r := range spec.Refs {
		if r.Array == arr {
			fmt.Fprintf(&b, "|%s", r.Map)
		}
	}
	return b.String()
}

// Matrix is the sharing matrix M of the paper's Figure 2(a): for processes
// k and p, M[k][p] is the number of bytes shared between their data
// spaces. The diagonal holds each process's own footprint in bytes.
type Matrix struct {
	ids  []taskgraph.ProcID
	pos  map[taskgraph.ProcID]int
	vals [][]int64
}

// ComputeMatrix builds the sharing matrix for every process in the graph
// on the calling goroutine (the blocked construction of MatrixParallel
// with one worker).
func ComputeMatrix(g *taskgraph.Graph) (*Matrix, error) {
	return NewAnalyzer().MatrixParallel(g, 1)
}

// Len returns the number of processes.
func (m *Matrix) Len() int { return len(m.ids) }

// IDs returns the process IDs in matrix order.
func (m *Matrix) IDs() []taskgraph.ProcID {
	return append([]taskgraph.ProcID(nil), m.ids...)
}

// Index returns the matrix position of a process ID in IDs() order; ok is
// false for processes the matrix does not cover. Positions feed SharedAt,
// which lets hot loops (the incremental scheduler) trade two map lookups
// per Shared call for plain slice indexing.
func (m *Matrix) Index(a taskgraph.ProcID) (int, bool) {
	i, ok := m.pos[a]
	return i, ok
}

// SharedAt returns the shared bytes between the processes at matrix
// positions i and j (the diagonal holds footprints). Positions must come
// from Index.
func (m *Matrix) SharedAt(i, j int) int64 { return m.vals[i][j] }

// Shared returns the shared bytes between two processes; 0 when either is
// unknown.
func (m *Matrix) Shared(a, b taskgraph.ProcID) int64 {
	i, ok := m.pos[a]
	if !ok {
		return 0
	}
	j, ok := m.pos[b]
	if !ok {
		return 0
	}
	return m.vals[i][j]
}

// Footprint returns the process's own footprint in bytes.
func (m *Matrix) Footprint(a taskgraph.ProcID) int64 { return m.Shared(a, a) }

// TotalSharing returns the sum of shared bytes between a and every process
// in others (excluding a itself).
func (m *Matrix) TotalSharing(a taskgraph.ProcID, others []taskgraph.ProcID) int64 {
	var n int64
	for _, o := range others {
		if o != a {
			n += m.Shared(a, o)
		}
	}
	return n
}

// MaxSharingPartner returns the process in candidates (excluding a) with
// maximal sharing with a; ties break to the smallest ID. ok is false when
// candidates is empty or contains only a.
func (m *Matrix) MaxSharingPartner(a taskgraph.ProcID, candidates []taskgraph.ProcID) (taskgraph.ProcID, int64, bool) {
	best := taskgraph.ProcID{}
	var bestVal int64 = -1
	found := false
	sorted := append([]taskgraph.ProcID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for _, c := range sorted {
		if c == a {
			continue
		}
		v := m.Shared(a, c)
		if !found || v > bestVal {
			best, bestVal, found = c, v, true
		}
	}
	return best, bestVal, found
}

// String renders the matrix like the paper's Figure 2(a) table (values in
// bytes).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "")
	for _, id := range m.ids {
		fmt.Fprintf(&b, "%10s", id.String())
	}
	b.WriteByte('\n')
	for i, id := range m.ids {
		fmt.Fprintf(&b, "%-8s", id.String())
		for j := range m.ids {
			fmt.Fprintf(&b, "%10d", m.vals[i][j])
		}
		if i < len(m.ids)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
