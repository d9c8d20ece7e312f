// Package engine is the shared parallel exploration engine behind every
// exhaustive search in this repository: the operational outcome
// enumeration (internal/explore), the trace scans of the race/local-DRF
// machinery (internal/race), and the hardware candidate-execution
// enumeration (internal/hw, internal/compile). It owns the three concerns
// those searches used to duplicate:
//
//   - Canonical-state identity: states are identified by a 128-bit hash
//     of a compact binary encoding (Hash, Interner), replacing the
//     fmt.Sprintf-style string keys of the seed implementation.
//
//   - Memoisation and budgets: the interner doubles as the visited set
//     and enforces MaxStates, so a runaway state space fails fast with
//     ErrStateBudget instead of exhausting memory.
//
//   - Scheduling: Run is a work-stealing frontier search over the state
//     graph — each worker owns a deque, steals when idle, and results are
//     accumulated in per-worker sinks that the caller merges after the
//     barrier. Because the visited set makes each distinct state expand
//     exactly once and outcome accumulation is a set union, the merged
//     result is deterministic at any parallelism. ForEach is the flat
//     counterpart for embarrassingly parallel sweeps (litmus corpus runs,
//     hardware choice-space partitions).
//
// A new semantics plugs in by providing two functions: Encode (append a
// canonical binary encoding of a state — equal encodings iff the states
// are semantically identical) and Expand (enumerate successor states,
// recording any terminal result in a per-worker sink).
package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"localdrf/internal/obs"
)

// Obs is the engine's process-wide search telemetry: how many distinct
// canonical states searches have interned, how many frontier tasks were
// stolen versus popped locally, and how many searches ran. Workers count
// in plain locals and publish once at exit, so the telemetry costs
// nothing per state. Snapshot it before and after a search to attribute
// counts to one run.
var Obs = obs.NewRegistry()

var (
	obsSearches   = Obs.Counter("engine.searches")
	obsStates     = Obs.Counter("engine.states_interned")
	obsExpansions = Obs.Counter("engine.expansions")
	obsSteals     = Obs.Counter("engine.steals")
)

// DefaultMaxStates bounds exploration; litmus-scale programs stay far
// below it.
const DefaultMaxStates = 2_000_000

// ErrStateBudget is returned when a search exceeds its distinct-state
// budget.
var ErrStateBudget = errors.New("engine: state budget exceeded")

// Options configures a frontier search.
type Options struct {
	// Parallelism is the number of worker goroutines (0 means
	// GOMAXPROCS). Results are independent of the setting.
	Parallelism int
	// MaxStates bounds the number of distinct canonical states visited
	// (0 means DefaultMaxStates).
	MaxStates int
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return DefaultMaxStates
}

// Config describes one search over states of type S.
type Config[S any] struct {
	Options
	// Encode appends the canonical binary encoding of s to buf (which may
	// be reused across calls) and returns the extended slice. Two states
	// must encode equal iff they are semantically identical.
	Encode func(s S, buf []byte) []byte
	// Expand enumerates the successors of s via emit and records any
	// terminal result of s into the caller's sink for the given worker
	// index (0 ≤ worker < Parallelism). Expand is called exactly once per
	// distinct state; calls for different states may run concurrently on
	// different workers.
	Expand func(worker int, s S, emit func(S)) error
}

// queue is one worker's deque of pending states. The owner pushes and
// pops at the tail; idle workers steal from the head (an index bump, so
// stealing is O(1) however long the queue grows). A plain mutex is
// enough here: expansion cost (machine cloning, history copies) dwarfs
// queue traffic by orders of magnitude.
type queue[S any] struct {
	mu   sync.Mutex
	head int // buf[:head] has been stolen; live items are buf[head:]
	buf  []S
}

func (q *queue[S]) push(s S) {
	q.mu.Lock()
	if q.head == len(q.buf) {
		q.head = 0
		q.buf = q.buf[:0]
	}
	q.buf = append(q.buf, s)
	q.mu.Unlock()
}

func (q *queue[S]) pop() (S, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero S
	if q.head == len(q.buf) {
		return zero, false
	}
	s := q.buf[len(q.buf)-1]
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	return s, true
}

func (q *queue[S]) steal() (S, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero S
	if q.head == len(q.buf) {
		return zero, false
	}
	s := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	return s, true
}

// Run explores the state graph reachable from roots: every distinct state
// (by canonical encoding) is expanded exactly once, across cfg.Parallelism
// work-stealing workers. It returns the number of distinct states visited
// and the first error any expansion produced (ErrStateBudget when the
// state budget is exceeded).
func Run[S any](cfg Config[S], roots ...S) (int, error) {
	par := cfg.parallelism()
	in := NewInterner(cfg.maxStates())

	queues := make([]*queue[S], par)
	for i := range queues {
		queues[i] = &queue[S]{}
	}

	var pending atomic.Int64 // states queued or mid-expansion
	var stop atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	var buf []byte
	for i, s := range roots {
		buf = cfg.Encode(s, buf[:0])
		fresh, err := in.Intern(Hash(buf))
		if err != nil {
			return in.Size(), err
		}
		if !fresh {
			continue
		}
		pending.Add(1)
		queues[i%par].push(s)
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var steals, expansions uint64
			defer func() {
				// One atomic publish per worker per search — the whole
				// telemetry cost of the frontier loop.
				obsSteals.Add(steals)
				obsExpansions.Add(expansions)
			}()
			self := queues[w]
			var buf []byte
			emit := func(s S) {
				if stop.Load() {
					return
				}
				buf = cfg.Encode(s, buf[:0])
				fresh, err := in.Intern(Hash(buf))
				if err != nil {
					fail(err)
					return
				}
				if !fresh {
					return
				}
				pending.Add(1)
				self.push(s)
			}
			idle := 0
			for {
				if stop.Load() {
					for {
						if _, ok := self.pop(); !ok {
							return
						}
						pending.Add(-1)
					}
				}
				s, ok := self.pop()
				for off := 1; !ok && off < par; off++ {
					if s, ok = queues[(w+off)%par].steal(); ok {
						steals++
					}
				}
				if !ok {
					if pending.Load() == 0 {
						return
					}
					// Another worker is mid-expansion and may still emit;
					// back off briefly rather than hammering the queues.
					if idle++; idle > 64 {
						time.Sleep(20 * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					continue
				}
				idle = 0
				expansions++
				if err := cfg.Expand(w, s, emit); err != nil {
					fail(err)
				}
				pending.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	obsSearches.Add(1)
	obsStates.Add(uint64(in.Size()))
	return in.Size(), firstErr
}

// ForEach runs fn(worker, i) for every i in [0, n), distributing the
// indices across parallelism workers (0 means GOMAXPROCS). On error the
// remaining indices are abandoned and the error of the lowest-indexed
// failing task observed is returned. It is the engine primitive for
// corpus sweeps and partitioned enumerations.
func ForEach(parallelism, n int, fn func(worker, i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if n <= 0 {
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var errMu sync.Mutex
	errIdx := n
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					errMu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
