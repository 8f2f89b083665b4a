package sharing

import (
	"fmt"
	"testing"

	"locsched/internal/taskgraph"
)

// sequentialMatrix is the sharing matrix's oracle: every process's data
// space enumerated afresh by ComputeDataSpace (no memo, no content
// dedup), then every pair intersected directly with
// DataSpace.SharedBytes.
func sequentialMatrix(g *taskgraph.Graph) (*Matrix, error) {
	ids := g.ProcIDs()
	m := &Matrix{
		ids:  ids,
		pos:  make(map[taskgraph.ProcID]int, len(ids)),
		vals: make([][]int64, len(ids)),
	}
	spaces := make([]DataSpace, len(ids))
	for i, id := range ids {
		m.pos[id] = i
		ds, err := ComputeDataSpace(g.Process(id).Spec)
		if err != nil {
			return nil, err
		}
		spaces[i] = ds
		m.vals[i] = make([]int64, len(ids))
	}
	for i := range ids {
		m.vals[i][i] = spaces[i].FootprintBytes()
		for j := i + 1; j < len(ids); j++ {
			s := spaces[i].SharedBytes(spaces[j])
			m.vals[i][j] = s
			m.vals[j][i] = s
		}
	}
	return m, nil
}

// BenchmarkComputeMatrixXL measures sharing-matrix construction on the
// XL ladder's generated mixes (tasks = cores/4): the sequential oracle
// against the blocked construction at 1 and 4 workers. Each path starts
// from a fresh Analyzer per iteration, so the numbers cover the full
// analysis phase — data spaces plus the pair sweep; the blocked path's
// data-space phase also gains from content dedup of repeated app
// templates.
func BenchmarkComputeMatrixXL(b *testing.B) {
	for _, cores := range []int{128, 512, 1024} {
		// The graph builds inside the cores-level Run so filtered
		// invocations (CI smokes select 128c only) skip the other rungs'
		// multi-thousand-process setup entirely.
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			g := xlGraph(b, cores/4)
			b.Run("seq", func(b *testing.B) {
				b.ReportMetric(float64(g.Len()), "procs")
				for i := 0; i < b.N; i++ {
					if _, err := sequentialMatrix(g); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
					b.ReportMetric(float64(g.Len()), "procs")
					for i := 0; i < b.N; i++ {
						if _, err := ComputeMatrixParallel(g, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
