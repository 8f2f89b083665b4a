package mpsoc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"locsched/internal/workload"
)

// TestParallelEngineMatchesSequential: the engine run in parallel the
// way the experiment layer's cell pool (-par) runs it — a reused Runner
// and a freshly built one simulating the same cell on two goroutines,
// both playing back the process-wide shared compiled streams — produces
// results bit-identical to a sequential run. It covers every Table 1
// application under both address maps, every machine variant (including
// a timeline-recording one: segment order must match, not just totals),
// and every dispatcher: run-to-completion, mid-iteration preemptive, and
// the full ARR affinity machinery.
func TestParallelEngineMatchesSequential(t *testing.T) {
	apps, err := workload.BuildAll(workload.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := rleDiffConfigs()
	tl := DefaultConfig()
	tl.RecordTimeline = true
	cfgs["Timeline"] = tl
	for cfgName, cfg := range cfgs {
		for _, app := range apps {
			for amName, am := range rleDiffMaps(t, app, cfg.Cache) {
				for dName, mkDisp := range rleDiffDispatchers(t) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", cfgName, app.Name, amName, dName), func(t *testing.T) {
						r, err := NewRunner(app.Graph, am, cfg)
						if err != nil {
							t.Fatal(err)
						}
						seq, err := r.Run(mkDisp())
						if err != nil {
							t.Fatalf("sequential run: %v", err)
						}
						var (
							wg       sync.WaitGroup
							got      [2]*Result
							errs     [2]error
							dispatch = [2]Dispatcher{mkDisp(), mkDisp()}
						)
						wg.Add(2)
						go func() {
							defer wg.Done()
							got[0], errs[0] = r.Run(dispatch[0])
						}()
						go func() {
							defer wg.Done()
							got[1], errs[1] = Run(app.Graph, dispatch[1], am, cfg)
						}()
						wg.Wait()
						for i, name := range []string{"reused runner", "fresh runner"} {
							if errs[i] != nil {
								t.Fatalf("%s: %v", name, errs[i])
							}
							if !reflect.DeepEqual(seq, got[i]) {
								t.Errorf("%s: results diverge:\nseq: %+v\ngot: %+v", name, seq, got[i])
							}
						}
					})
				}
			}
		}
	}
}
