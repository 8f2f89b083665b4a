// Package sched implements the paper's four process scheduling strategies
// (Section 4):
//
//   - RS: random scheduling — a free core picks a uniformly random ready
//     process and runs it to completion.
//   - RRS: round-robin scheduling — preemptive FCFS over one common FIFO
//     ready queue with a fixed time quantum.
//   - LS: locality-aware scheduling — the greedy heuristic of Figure 3
//     driven by the inter-process sharing matrix.
//   - LSM: LS plus the data-mapping phase of Figures 4–5, which re-lays
//     out conflicting arrays into disjoint cache-set banks.
//
// RS and RRS are dynamic policies; LS and LSM compute a static per-core
// order offline and replay it, waiting when the next pinned process is
// not yet dependence-ready.
package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"locsched/internal/taskgraph"
)

// DefaultQuantum is the RRS time slice in cycles (50µs at the paper's
// 200 MHz clock).
const DefaultQuantum int64 = 10000

// Random implements RS. A seed makes runs reproducible.
type Random struct {
	pool []taskgraph.ProcID // kept sorted for determinism
	rng  *rand.Rand
}

// NewRandom returns an RS dispatcher.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements mpsoc.Dispatcher.
func (r *Random) Name() string { return "RS" }

// CoreAgnostic implements mpsoc.CoreAgnostic: the pool is global, any
// core can take any ready process.
func (r *Random) CoreAgnostic() bool { return true }

// Ready implements mpsoc.Dispatcher.
func (r *Random) Ready(id taskgraph.ProcID) { r.pool = insertSorted(r.pool, id) }

// Preempted implements mpsoc.Dispatcher (RS never preempts, but a
// returned process goes back to the pool).
func (r *Random) Preempted(id taskgraph.ProcID) { r.pool = insertSorted(r.pool, id) }

// Pick implements mpsoc.Dispatcher: uniform random ready process, run to
// completion.
func (r *Random) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	if len(r.pool) == 0 {
		return taskgraph.ProcID{}, 0, false
	}
	i := r.rng.Intn(len(r.pool))
	id := r.pool[i]
	r.pool = append(r.pool[:i], r.pool[i+1:]...)
	return id, 0, true
}

// RoundRobin implements RRS: one common FIFO ready queue, fixed quantum,
// preempted processes rejoin the tail (and may resume on any core).
type RoundRobin struct {
	queue   []taskgraph.ProcID
	quantum int64
}

// NewRoundRobin returns an RRS dispatcher; quantum must be positive (use
// DefaultQuantum for the paper's setting).
func NewRoundRobin(quantum int64) (*RoundRobin, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("sched: RRS quantum %d must be positive", quantum)
	}
	return &RoundRobin{quantum: quantum}, nil
}

// MustRoundRobin is NewRoundRobin that panics on error.
func MustRoundRobin(quantum int64) *RoundRobin {
	r, err := NewRoundRobin(quantum)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements mpsoc.Dispatcher.
func (r *RoundRobin) Name() string { return "RRS" }

// CoreAgnostic implements mpsoc.CoreAgnostic: the ready queue is common
// to all cores.
func (r *RoundRobin) CoreAgnostic() bool { return true }

// Ready implements mpsoc.Dispatcher: new processes join the tail.
func (r *RoundRobin) Ready(id taskgraph.ProcID) { r.queue = append(r.queue, id) }

// Preempted implements mpsoc.Dispatcher: expired processes rejoin the tail.
func (r *RoundRobin) Preempted(id taskgraph.ProcID) { r.queue = append(r.queue, id) }

// Pick implements mpsoc.Dispatcher: head of the common queue, with the
// configured quantum.
func (r *RoundRobin) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	if len(r.queue) == 0 {
		return taskgraph.ProcID{}, 0, false
	}
	id := r.queue[0]
	r.queue = r.queue[1:]
	return id, r.quantum, true
}

// Assignment is a static schedule: an ordered process list per core.
type Assignment struct {
	PerCore [][]taskgraph.ProcID
}

// Cores returns the number of cores in the assignment.
func (a *Assignment) Cores() int { return len(a.PerCore) }

// Len returns the total number of scheduled processes.
func (a *Assignment) Len() int {
	n := 0
	for _, l := range a.PerCore {
		n += len(l)
	}
	return n
}

// CoreOf returns the core a process is pinned to, or -1.
func (a *Assignment) CoreOf(id taskgraph.ProcID) int {
	for c, l := range a.PerCore {
		for _, p := range l {
			if p == id {
				return c
			}
		}
	}
	return -1
}

// SuccessivePairs returns every (earlier, later) pair of processes
// adjacent on the same core — the pairs whose sharing LS maximizes and
// whose conflicts LSM eliminates.
func (a *Assignment) SuccessivePairs() [][2]taskgraph.ProcID {
	var out [][2]taskgraph.ProcID
	for _, l := range a.PerCore {
		for i := 1; i < len(l); i++ {
			out = append(out, [2]taskgraph.ProcID{l[i-1], l[i]})
		}
	}
	return out
}

func (a *Assignment) String() string {
	var b strings.Builder
	for c, l := range a.PerCore {
		fmt.Fprintf(&b, "core %d:", c)
		for _, id := range l {
			fmt.Fprintf(&b, " %v", id)
		}
		if c < len(a.PerCore)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// StaticMode selects how rigidly a Static dispatcher follows its
// assignment at runtime.
type StaticMode int

const (
	// StealWhenIdle (the default for LS/LSM) runs the core's earliest
	// ready entry; when the core's whole list is blocked or exhausted it
	// steals the deepest ready entry from another core's list. Locality
	// placement is preserved whenever dependences allow; idle cores are
	// not. This is how an OS would deploy the Figure 3 order — the figure
	// fixes per-core priorities, not idle waiting.
	StealWhenIdle StaticMode = iota
	// SkipBlocked runs the core's earliest ready entry but never steals.
	SkipBlocked
	// StrictOrder stalls the core until its exact next entry is ready.
	StrictOrder
)

func (m StaticMode) String() string {
	switch m {
	case StealWhenIdle:
		return "steal"
	case SkipBlocked:
		return "skip"
	case StrictOrder:
		return "strict"
	}
	return fmt.Sprintf("StaticMode(%d)", int(m))
}

// Static replays an Assignment: core k draws from its own list per the
// configured mode. LS and LSM are Static dispatchers over
// locality-derived assignments.
//
// State is positional: each process's (core, index) is resolved once at
// construction, and readiness/taken are flat bit slices with per-core
// ready counters. Pick therefore costs O(own list) when local work is
// ready and O(cores) — integer loads, no hashing — when it must steal
// or fail, which is what large machines hammer: the engine re-offers
// every idle core on every completion, so failed picks dominate at 128
// cores.
type Static struct {
	name       string
	perCore    [][]taskgraph.ProcID
	pos        map[taskgraph.ProcID]staticPos
	taken      [][]bool
	ready      [][]bool
	readyCount []int // ready-and-not-taken entries per core
	readyTotal int
	head       []int // per-core index of the first non-taken entry
	mode       StaticMode
}

type staticPos struct{ core, idx int }

// NewStatic wraps an assignment as a dispatcher in the default
// StealWhenIdle mode.
func NewStatic(name string, a *Assignment) *Static {
	return NewStaticMode(name, a, StealWhenIdle)
}

// NewStaticMode wraps an assignment as a dispatcher with an explicit
// runtime mode.
func NewStaticMode(name string, a *Assignment, mode StaticMode) *Static {
	per := make([][]taskgraph.ProcID, len(a.PerCore))
	s := &Static{
		name:       name,
		perCore:    per,
		pos:        make(map[taskgraph.ProcID]staticPos),
		taken:      make([][]bool, len(a.PerCore)),
		ready:      make([][]bool, len(a.PerCore)),
		readyCount: make([]int, len(a.PerCore)),
		head:       make([]int, len(a.PerCore)),
		mode:       mode,
	}
	for c, l := range a.PerCore {
		per[c] = append([]taskgraph.ProcID(nil), l...)
		s.taken[c] = make([]bool, len(l))
		s.ready[c] = make([]bool, len(l))
		for i, id := range l {
			s.pos[id] = staticPos{core: c, idx: i}
		}
	}
	return s
}

// Name implements mpsoc.Dispatcher.
func (s *Static) Name() string { return s.name }

// CoreAgnostic implements mpsoc.CoreAgnostic: under StealWhenIdle every
// ready entry is reachable from every core (own list or steal), so Pick
// success is core-independent. The skip and strict modes bind work to
// cores and must keep receiving every offer.
func (s *Static) CoreAgnostic() bool { return s.mode == StealWhenIdle }

// Mode returns the runtime mode.
func (s *Static) Mode() StaticMode { return s.mode }

// Ready implements mpsoc.Dispatcher. Processes outside the assignment
// are ignored (they can never be picked, as before).
func (s *Static) Ready(id taskgraph.ProcID) {
	p, ok := s.pos[id]
	if !ok {
		return
	}
	if !s.ready[p.core][p.idx] {
		s.ready[p.core][p.idx] = true
		s.readyCount[p.core]++
		s.readyTotal++
	}
}

// take claims the (always ready) entry at a position.
func (s *Static) take(c, i int) {
	s.taken[c][i] = true
	s.readyCount[c]--
	s.readyTotal--
}

// Preempted implements mpsoc.Dispatcher. Static schedules never preempt;
// a hand-back is a bug in the runtime configuration.
func (s *Static) Preempted(id taskgraph.ProcID) {
	panic(fmt.Sprintf("sched: static policy %s got preempted process %v", s.name, id))
}

// Pick implements mpsoc.Dispatcher per the configured mode.
func (s *Static) Pick(core int, now int64) (taskgraph.ProcID, int64, bool) {
	if core >= len(s.perCore) || s.readyTotal == 0 {
		return taskgraph.ProcID{}, 0, false
	}
	l := s.perCore[core]
	h := s.head[core]
	for h < len(l) && s.taken[core][h] {
		h++
	}
	s.head[core] = h
	if s.readyCount[core] > 0 {
		for i := h; i < len(l); i++ {
			if s.taken[core][i] {
				continue
			}
			if s.ready[core][i] {
				s.take(core, i)
				return l[i], 0, true
			}
			if s.mode == StrictOrder {
				return taskgraph.ProcID{}, 0, false
			}
		}
	} else if s.mode == StrictOrder {
		// The exact next entry (if any) is not ready.
		return taskgraph.ProcID{}, 0, false
	}
	if s.mode != StealWhenIdle {
		return taskgraph.ProcID{}, 0, false
	}
	// Steal: take the deepest ready entry of another core's list — the
	// entry furthest from running there, so the disruption to imminent
	// locality chains is minimal. Core order breaks ties.
	for c := range s.perCore {
		if c == core || s.readyCount[c] == 0 {
			continue
		}
		lc := s.perCore[c]
		for i := len(lc) - 1; i >= 0; i-- {
			if !s.taken[c][i] && s.ready[c][i] {
				s.take(c, i)
				return lc[i], 0, true
			}
		}
	}
	return taskgraph.ProcID{}, 0, false
}

func insertSorted(ids []taskgraph.ProcID, id taskgraph.ProcID) []taskgraph.ProcID {
	i := sort.Search(len(ids), func(i int) bool { return id.Less(ids[i]) })
	ids = append(ids, taskgraph.ProcID{})
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}
