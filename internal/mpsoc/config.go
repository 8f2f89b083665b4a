// Package mpsoc simulates the paper's target platform: an embedded
// multiprocessor-system-on-chip with private per-core L1 data caches and
// a fixed-latency off-chip memory (Table 2 of the paper), executing
// process address traces under a pluggable scheduling policy.
//
// This replaces the paper's Simics full-system setup: the reported
// metrics derive from L1 hit/miss behaviour times fixed latencies plus
// scheduling order, which a trace-driven cache-accurate model reproduces.
package mpsoc

import (
	"fmt"

	"locsched/internal/cache"
)

// Config holds the machine parameters. DefaultConfig reproduces the
// paper's Table 2.
type Config struct {
	Cores       int               // number of processor cores
	Cache       cache.Geometry    // per-core L1 data cache shape
	Replacement cache.Replacement // per-core replacement policy
	Indexing    cache.Indexing    // set-index hash (default modulo)
	Classify    bool              // classify misses (cold/capacity/conflict)
	HitLatency  int64             // cycles per L1 access
	MissPenalty int64             // extra cycles per off-chip access
	ClockMHz    int64             // processor clock, for cycle→seconds
	Seed        int64             // seed for randomized policies

	// RecordTimeline captures every executed segment (core, process,
	// start, end) in Result.Timeline for Gantt-style inspection.
	RecordTimeline bool

	// BusFactor models shared off-chip bus contention as an extension to
	// the paper: each miss pays MissPenalty × (1 + BusFactor × (number of
	// other busy cores at segment dispatch)). 0 disables contention.
	BusFactor float64

	// WritePolicy selects write-through (default; stores priced like
	// loads) or write-back caches. Under WriteBack, each dirty eviction
	// additionally costs WritebackPenalty cycles (0 models a perfect
	// write buffer).
	WritePolicy      cache.WritePolicy
	WritebackPenalty int64

	// Machine extends the scalar parameters above with per-core speed
	// classes and an interconnect topology (see Machine). The zero value
	// is the paper's homogeneous shared-bus machine and is bit-identical
	// to the pre-Machine engines.
	Machine Machine
}

// DefaultConfig returns the paper's Table 2 parameters: 8 processors,
// 8KB 2-way per-core caches, 2-cycle cache access, 75-cycle off-chip
// access, 200 MHz. (Block size is not stated in the paper; 32B is
// typical of the era's embedded cores.)
func DefaultConfig() Config {
	return Config{
		Cores:       8,
		Cache:       cache.Geometry{Size: 8 * 1024, BlockSize: 32, Assoc: 2},
		Replacement: cache.LRU,
		Classify:    true,
		HitLatency:  2,
		MissPenalty: 75,
		ClockMHz:    200,
		Seed:        1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("mpsoc: cores %d must be positive", c.Cores)
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("mpsoc: hit latency %d must be positive", c.HitLatency)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("mpsoc: miss penalty %d must be non-negative", c.MissPenalty)
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("mpsoc: clock %d MHz must be positive", c.ClockMHz)
	}
	if c.BusFactor < 0 {
		return fmt.Errorf("mpsoc: bus factor %f must be non-negative", c.BusFactor)
	}
	if c.WritebackPenalty < 0 {
		return fmt.Errorf("mpsoc: writeback penalty %d must be non-negative", c.WritebackPenalty)
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return nil
}

// Seconds converts a cycle count to wall-clock seconds at the configured
// clock rate.
func (c Config) Seconds(cycles int64) float64 {
	return float64(cycles) / (float64(c.ClockMHz) * 1e6)
}
