package experiment

import (
	"reflect"
	"testing"

	"locsched/internal/workload"
)

// TestARRZeroAffinityMatchesRRSCells: at affinity strength 0 every ARR
// cell of the harness reports the same numbers as the RRS cell (only
// the policy label differs) — the experiment-level face of the
// dispatcher-level bit-identity test in internal/mpsoc.
func TestARRZeroAffinityMatchesRRSCells(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	cfg.Affinity = 0
	cfg.QBatch = 1
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		rrs, err := RunApp(app, RRS, cfg)
		if err != nil {
			t.Fatalf("%s/RRS: %v", app.Name, err)
		}
		arr, err := RunApp(app, ARR, cfg)
		if err != nil {
			t.Fatalf("%s/ARR: %v", app.Name, err)
		}
		arr.Policy = rrs.Policy
		if !reflect.DeepEqual(rrs, arr) {
			t.Errorf("%s: ARR(affinity=0) diverges from RRS:\nRRS: %+v\nARR: %+v", app.Name, rrs, arr)
		}
	}
}

// TestARRParallelDeterministic: ARR cells are bit-reproducible under the
// worker-pool fan-out — same seed, Workers=1 vs Workers=4, identical
// tables — on both the 8-core figures and a 32-core XL point.
func TestARRParallelDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	policies := []Policy{RS, RRS, ARR, LS}

	cfg.Workers = 1
	seq6, err := Figure6(cfg, policies)
	if err != nil {
		t.Fatalf("sequential Figure6: %v", err)
	}
	seqXL, err := Figure7XL(cfg, []XLPoint{{Cores: 32, Tasks: 8}}, policies)
	if err != nil {
		t.Fatalf("sequential Figure7XL: %v", err)
	}

	cfg.Workers = 4
	par6, err := Figure6(cfg, policies)
	if err != nil {
		t.Fatalf("parallel Figure6: %v", err)
	}
	parXL, err := Figure7XL(cfg, []XLPoint{{Cores: 32, Tasks: 8}}, policies)
	if err != nil {
		t.Fatalf("parallel Figure7XL: %v", err)
	}

	if !reflect.DeepEqual(seq6, par6) {
		t.Error("parallel ARR Figure6 differs from sequential run")
	}
	if !reflect.DeepEqual(seqXL, parXL) {
		t.Error("parallel ARR Figure7XL differs from sequential run")
	}
}

// TestAblationAffinityZeroWindowMatchesRRS: the affinity grid's w=0 k=1
// point equals the RRS baseline cell for cell.
func TestAblationAffinityZeroWindowMatchesRRS(t *testing.T) {
	cfg := xlTestConfig()
	s, err := AblationAffinity(cfg, []int{0, 8}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range s.Points {
		if pt.Label != "w=0 k=1" {
			continue
		}
		rrs, arr := pt.Results[RRS], pt.Results[ARR]
		if rrs == nil || arr == nil {
			t.Fatalf("point %s missing results", pt.Label)
		}
		norm := *arr
		norm.Policy = rrs.Policy
		if !reflect.DeepEqual(*rrs, norm) {
			t.Errorf("w=0 k=1 ARR cell differs from RRS baseline:\nRRS: %+v\nARR: %+v", rrs, arr)
		}
	}
}

// TestARRBeatsRRSOnMix: with the default affinity setting the full mix
// must not regress against RRS — the headline the policy was added for.
func TestARRBeatsRRSOnMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload.Scale = 1
	apps, err := workload.BuildAll(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	rrs, err := RunMix(apps, RRS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := RunMix(apps, ARR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Cycles > rrs.Cycles {
		t.Errorf("ARR cycles %d regressed past RRS %d", arr.Cycles, rrs.Cycles)
	}
	if arr.AffineResumes == 0 {
		t.Error("ARR reported no affine resumes on a preemptive mix")
	}
}
