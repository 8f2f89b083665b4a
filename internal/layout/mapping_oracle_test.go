package layout_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// checkMappingAgainstOracle runs the LSM mapping phase on g and checks
// its MappingResult against the rescanning, full-recompute greedy over
// the same verification groups (built exactly as NewLSM builds them).
func checkMappingAgainstOracle(t *testing.T, name string, g *taskgraph.Graph, arrays []*prog.Array, cores int, geom cache.Geometry) {
	t.Helper()
	base, err := layout.Pack(geom.BlockSize, arrays...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharing.ComputeMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := sched.NewLSM(g, m, nil, cores, base, geom, nil)
	if err != nil {
		t.Fatalf("%s: NewLSM: %v", name, err)
	}
	an := sharing.NewAnalyzer()
	var groups []layout.VerifyGroup
	for _, id := range g.ProcIDs() {
		spec := g.Process(id).Spec
		ds, err := an.DataSpace(spec)
		if err != nil {
			t.Fatal(err)
		}
		refs := make(map[*prog.Array]int)
		for _, r := range spec.Refs {
			refs[r.Array]++
		}
		groups = append(groups, layout.VerifyGroup{FP: layout.Footprints(ds), Refs: refs})
	}
	banks, before, after, err := layout.SelectRelayoutVerifiedRescan(groups, res.Conflicts, base, res.Threshold, geom)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d arrays, %d re-laid, pressure %d -> %d", name, len(res.Conflicts.Arrays()), len(banks), before, after)
	if !reflect.DeepEqual(res.Banks, banks) || res.PressureBefore != before || res.PressureAfter != after ||
		res.Verified != (after < before) {
		t.Errorf("%s: mapping = banks %v, pressure %d -> %d (verified %v); oracle = banks %v, pressure %d -> %d",
			name, res.Banks, res.PressureBefore, res.PressureAfter, res.Verified, banks, before, after)
	}
}

// TestMappingMatchesOracleTable1 covers every Table 1 application alone
// and the six together, at two workload scales on the paper's cache and
// at the default scale on a direct-mapped and a 4-way geometry.
func TestMappingMatchesOracleTable1(t *testing.T) {
	paper := cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2}
	for _, c := range []struct {
		scale int
		geom  cache.Geometry
	}{
		{1, paper},
		{2, paper},
		{2, cache.Geometry{Size: 4 * 1024, BlockSize: 32, Assoc: 1}},
		{2, cache.Geometry{Size: 16 * 1024, BlockSize: 16, Assoc: 4}},
	} {
		apps, err := workload.BuildAll(workload.Params{Scale: c.scale})
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			checkMappingAgainstOracle(t, app.Name, app.Graph, app.Arrays, 8, c.geom)
		}
		g, arrays, err := workload.Combine(apps...)
		if err != nil {
			t.Fatal(err)
		}
		checkMappingAgainstOracle(t, "table1-mix", g, arrays, 8, c.geom)
	}
}

// TestMappingMatchesOracleXLMixes covers generated multi-program mixes
// on 32–128-core machines (tasks = cores/4), each drawn from the Table 1
// suite with a seeded generator. The mixes run at workload scale 1 to
// keep the oracle's full recompute affordable (the Table 1 test covers
// scale 2), and -short skips the 128-core mix.
func TestMappingMatchesOracleXLMixes(t *testing.T) {
	geom := cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2}
	names := workload.Names()
	for _, cores := range []int{32, 64, 128} {
		t.Run(fmt.Sprintf("%dc", cores), func(t *testing.T) {
			if cores > 64 && testing.Short() {
				t.Skip("the oracle takes seconds at 128 cores")
			}
			rng := rand.New(rand.NewSource(int64(cores)))
			var apps []*workload.App
			for task := 0; task < cores/4; task++ {
				app, err := workload.Build(names[rng.Intn(len(names))], task, workload.Params{Scale: 1})
				if err != nil {
					t.Fatal(err)
				}
				apps = append(apps, app)
			}
			g, arrays, err := workload.Combine(apps...)
			if err != nil {
				t.Fatal(err)
			}
			checkMappingAgainstOracle(t, "xl", g, arrays, cores, geom)
		})
	}
}
