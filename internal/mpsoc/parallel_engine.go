package mpsoc

// RunParallel is Run; workers is ignored. The method stays only because
// the benchmark pipeline (perfbench/pipeline.go) calls it.
func (r *Runner) RunParallel(d Dispatcher, workers int) (*Result, error) { return r.Run(d) }
