// Command tracegen inspects a workload's static structure: its sharing
// matrix (paper Figure 2a), the LS per-core schedule (Figure 3's output),
// the process graph in Graphviz DOT, or a prefix of a process's address
// trace. It is the debugging companion to mpsocsim.
//
// Usage:
//
//	tracegen -app MxM -show sharing
//	tracegen -app MxM -show schedule -cores 4
//	tracegen -app MxM -show dot > mxm.dot
//	tracegen -app MxM -show trace -proc 0 -n 16
package main

import (
	"flag"
	"fmt"
	"os"

	"locsched"
	"locsched/internal/layout"
	"locsched/internal/trace"
)

func main() {
	appName := flag.String("app", "Med-Im04", "application (Table 1 name)")
	show := flag.String("show", "sharing", "what to print: sharing, schedule, dot, critical, trace")
	cores := flag.Int("cores", 8, "cores for -show schedule")
	procIdx := flag.Int("proc", 0, "process index for -show trace")
	n := flag.Int("n", 32, "number of accesses for -show trace")
	scale := flag.Int("scale", 0, "workload scale factor (0 = default)")
	flag.Parse()

	params := locsched.DefaultConfig().Workload
	if *scale > 0 {
		params.Scale = *scale
	}
	app, err := locsched.BuildApp(*appName, 0, params)
	if err != nil {
		fatal(err)
	}

	switch *show {
	case "sharing":
		m, err := locsched.ComputeSharing(app.Graph)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sharing matrix for %s (bytes; diagonal = footprint):\n%s\n", app.Name, m)
	case "schedule":
		m, err := locsched.ComputeSharing(app.Graph)
		if err != nil {
			fatal(err)
		}
		asg, err := locsched.LocalitySchedule(app.Graph, m, *cores)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("LS schedule for %s on %d cores:\n%s\n", app.Name, *cores, asg)
	case "dot":
		if err := app.Graph.WriteDOT(os.Stdout, app.Name); err != nil {
			fatal(err)
		}
	case "critical":
		path, err := app.Graph.CriticalPath()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("critical path of %s (%d of %d processes):\n", app.Name, len(path), app.Procs())
		for _, id := range path {
			fmt.Printf("  %v  %s\n", id, app.Graph.Process(id).Spec.Name)
		}
	case "trace":
		ids := app.Graph.ProcIDs()
		if *procIdx < 0 || *procIdx >= len(ids) {
			fatal(fmt.Errorf("process index %d out of range [0,%d)", *procIdx, len(ids)))
		}
		proc := app.Graph.Process(ids[*procIdx])
		am := layout.MustPack(32, app.Arrays...)
		gen := trace.NewGenerator(am)
		cur, err := gen.NewRLECursor(proc.Spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("first %d accesses of %s (%s):\n", *n, ids[*procIdx], proc.Spec.Name)
		for i := 0; i < *n; i++ {
			acc, ok := cur.Next()
			if !ok {
				break
			}
			kind := "R"
			if acc.Write {
				kind = "W"
			}
			marker := ""
			if acc.NewIter {
				marker = " <- new iteration"
			}
			fmt.Printf("  %s 0x%06x%s\n", kind, acc.Addr, marker)
		}
	default:
		fatal(fmt.Errorf("unknown -show %q (want sharing, schedule, dot, critical, or trace)", *show))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
