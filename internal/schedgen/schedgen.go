// Package schedgen generates long concrete schedules — single
// interleaved executions — of multi-threaded programs, as streams of
// monitor events.
//
// The exhaustive explorers (internal/explore) enumerate *every* trace of
// a program, which bounds them to litmus-sized inputs. This package takes
// the opposite point in the design space: one schedule, chosen by a
// scheduling policy, executed by a mutable single-pass interpreter with
// no machine cloning — so schedules over scaled-up programs
// (progsynth.Scaled) reach 10⁶+ events in well under a second, the
// workload the streaming race monitor (internal/monitor) exists for.
//
// Fidelity note: the generator interprets programs with a plain store
// (per-location write histories of bounded depth) and, optionally, stale
// reads that return non-latest history entries. The streams are therefore
// *plausible* schedules, not certified traces of the operational model —
// the frontier side conditions of fig. 1 are not enforced. That is
// deliberate and harmless for the monitor contract: happens-before
// (def. 8) and data races (defs. 9/10) are pure functions of the event
// stream (threads, locations, kinds, and RA reads-from timestamps), so
// monitor-versus-race.Races agreement is meaningful on any stream; the
// differential tests check it both on schedgen streams and on genuine
// machine traces from the exhaustive explorer.
package schedgen

import (
	"fmt"
	"io"
	"math"
	"sort"

	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/ts"
)

// rng is a tiny xorshift64* generator. Schedule generation draws one or
// two random numbers per event, and at 10⁷ events/sec the standard
// library generator's rejection sampling is a measurable slice of the
// fused generate-and-monitor pipeline. Streams remain deterministic per
// seed and stable across platforms — all the Options contract promises.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	// SplitMix64 scramble, so nearby seeds yield unrelated streams; the
	// xorshift state must be nonzero.
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return &rng{s: z}
}

func (g *rng) next() uint64 {
	s := g.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	g.s = s
	return s * 0x2545F4914F6CDD1D
}

// intn returns a uniform-ish int in [0,n); the modulo bias is immaterial
// at the small n drawn here.
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// skewIndex maps a uniform draw u ∈ [0,1] to a rank along a normalised
// CDF. The result must be clamped: the last CDF entry is 1.0 only up to
// rounding (the normalising division can leave it at 0.99999…), so a
// draw above it — u very close to, or exactly, 1 — lands past the end
// of the search and would otherwise index out of range.
func skewIndex(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// Policy selects which runnable thread performs the next event.
type Policy int

const (
	// Fair picks uniformly among runnable threads.
	Fair Policy = iota
	// Unfair weights low-indexed threads geometrically (thread 0 runs
	// about twice as often as thread 1, and so on) — starvation-shaped
	// schedules.
	Unfair
	// Bursty keeps scheduling the same thread for geometrically
	// distributed burst lengths (mean ≈ 64 events) before switching —
	// the cache-friendly shape real schedulers produce, and the one the
	// monitor's same-thread fast path is built for.
	Bursty
)

func (p Policy) String() string {
	switch p {
	case Unfair:
		return "unfair"
	case Bursty:
		return "bursty"
	default:
		return "fair"
	}
}

// Set parses "fair", "unfair" or "bursty", making *Policy a
// flag.Value: a bad policy is refused while the command line is parsed.
func (p *Policy) Set(s string) error {
	for _, q := range []Policy{Fair, Unfair, Bursty} {
		if q.String() == s {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("schedgen: unknown policy %q (want fair|unfair|bursty)", s)
}

// Options configures schedule generation.
type Options struct {
	Policy Policy
	// Seed makes schedules reproducible: equal (program, Options) yield
	// equal streams.
	Seed int64
	// MaxEvents stops the schedule after this many events even if the
	// program has not halted (0 means run to completion — only sensible
	// for terminating programs).
	MaxEvents int
	// StaleReadPct is the percentage of nonatomic and release-acquire
	// reads that return a random non-latest history entry (a weak read in
	// the def. 6 sense) instead of the latest write. Stale RA reads
	// exercise the monitor's per-message reads-from joins. Values
	// outside 0..100 are an error.
	StaleReadPct int
	// EmitHalts appends a monitor.KindHalt event when a thread runs to
	// completion, telling downstream windowed analyses (the monitor's RA
	// GC) that the thread's frontier can be treated as +∞. Halt events
	// count toward MaxEvents and the emitted total. Off by default so
	// existing streams stay byte-identical; halts never change the
	// monitor's report set, only retention.
	EmitHalts bool
	// LocSkew, when > 0, redirects every nonatomic access to a location
	// drawn per-event from a Zipf distribution with this exponent over
	// the declared nonatomic locations (rank r has weight 1/(r+1)^s, rank
	// 0 being the first nonatomic declaration — so low dense indices run
	// hot). Skewed streams exercise the sharded pipeline's hot-location
	// paths and its back-end imbalance. The monitor and the race oracle
	// still agree on any stream under the package's plausible-schedule
	// contract (reads return entries of the redirected location's own
	// history), but a skewed stream is no trace of the program: it sends
	// a thread's accesses to locations its code never touches, so a
	// static certificate of the program (internal/staticrace) does not
	// cover it and must not filter its monitor. 0 (the default) leaves
	// streams byte-identical to previous releases; enabling it costs one
	// extra random draw per nonatomic event.
	LocSkew float64
}

const (
	// historyDepth is how many recent writes per location are kept for
	// stale reads, so memory stays O(locations) at any schedule length.
	historyDepth = 4
	// burstMean is the mean burst length of the Bursty policy.
	burstMean = 64
)

// cell is the bounded write history of one location: a ring of the most
// recent writes, each with a per-location integer timestamp. Index 0 of a
// fresh cell is the initial write (value 0 at time 0, §3.1).
type cell struct {
	times [historyDepth]int64
	vals  [historyDepth]prog.Val
	n     int   // live entries (≤ historyDepth)
	head  int   // ring index of the latest write
	next  int64 // timestamp for the next write
}

func newCell() cell {
	return cell{n: 1, next: 1} // entry 0: time 0, value 0
}

func (c *cell) push(v prog.Val) int64 {
	t := c.next
	c.next++
	c.head = (c.head + 1) % historyDepth
	c.times[c.head] = t
	c.vals[c.head] = v
	if c.n < historyDepth {
		c.n++
	}
	return t
}

// latest returns the newest entry.
func (c *cell) latest() (int64, prog.Val) { return c.times[c.head], c.vals[c.head] }

// at returns the entry i steps behind the newest (0 ≤ i < n).
func (c *cell) at(i int) (int64, prog.Val) {
	j := (c.head - i%c.n + historyDepth) % historyDepth
	return c.times[j], c.vals[j]
}

// Generate executes p under the given options and appends the resulting
// event stream to dst (pass nil to allocate). It returns the stream and
// whether the program ran to completion before MaxEvents. For workloads
// that should never materialise the schedule, use Stream (push) or
// Encode (write the wire format) instead.
func Generate(p *prog.Program, tb *monitor.Table, opt Options, dst []monitor.Event) ([]monitor.Event, bool, error) {
	if opt.MaxEvents > 0 {
		// The budget covers the total slice length, pre-existing entries
		// included (buffer-reuse callers pass dst[:0]).
		if len(dst) >= opt.MaxEvents {
			return dst, false, nil
		}
		opt.MaxEvents -= len(dst)
	}
	completed, err := Stream(p, tb, opt, func(e monitor.Event) error {
		dst = append(dst, e)
		return nil
	})
	return dst, completed, err
}

// Encode generates a schedule and writes it to w in the wire format
// (monitor.BinaryV2 or monitor.Text) without ever materialising the event
// slice — generate-and-encode in O(locations + threads) live memory. It
// returns the number of events written and whether the program ran to
// completion before MaxEvents.
func Encode(w io.Writer, p *prog.Program, tb *monitor.Table, opt Options, format monitor.Format) (int, bool, error) {
	tw, err := monitor.NewTraceWriter(w, monitor.Header{Threads: tb.Threads(), Decls: tb.Decls()}, format)
	if err != nil {
		return 0, false, err
	}
	n := 0
	completed, err := Stream(p, tb, opt, func(e monitor.Event) error {
		n++
		return tw.Write(e)
	})
	if err != nil {
		return n, false, err
	}
	return n, completed, tw.Flush()
}

// StreamBatch is Stream with batched delivery: events accumulate in one
// reused buffer of the given size (≤ 0 means 4096) and emit receives
// each full batch plus the final partial one. This is the fused
// generate-and-monitor feeding path for consumers with a batch entry
// point (monitor.Monitor.StepBatch, sequential or sharded) — one
// callback per batch instead of one per event. The buffer is only valid
// for the duration of the callback.
func StreamBatch(p *prog.Program, tb *monitor.Table, opt Options, batch int, emit func([]monitor.Event) error) (bool, error) {
	if batch <= 0 {
		batch = 4096
	}
	buf := make([]monitor.Event, 0, batch)
	completed, err := Stream(p, tb, opt, func(e monitor.Event) error {
		buf = append(buf, e)
		if len(buf) == batch {
			err := emit(buf)
			buf = buf[:0]
			return err
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if len(buf) > 0 {
		if err := emit(buf); err != nil {
			return false, err
		}
	}
	return completed, nil
}

// Stream executes p under the given options, pushing each event to emit
// as it is produced — the generate-and-feed core that Generate, Encode
// and StreamBatch wrap, and that cmd/racemon's generated mode feeds
// straight into a monitor without buffering the schedule. Generation
// stops early if emit returns an error (which is returned as-is). The
// boolean result reports whether the program ran to completion before
// MaxEvents.
func Stream(p *prog.Program, tb *monitor.Table, opt Options, emit func(monitor.Event) error) (bool, error) {
	if opt.StaleReadPct < 0 || opt.StaleReadPct > 100 {
		return false, fmt.Errorf("schedgen: stale-read percentage %d outside 0..100", opt.StaleReadPct)
	}
	r := newRNG(opt.Seed)

	// Dense location state, indexed like the monitor's events.
	decls := tb.Decls()
	cells := make([]cell, len(decls)) // NA and RA histories
	atVals := make([]prog.Val, len(decls))
	for i := range cells {
		cells[i] = newCell()
	}

	// locAt[t][pc] is the dense location index of the Load/Store at that
	// program counter (-1 elsewhere), precomputed so the per-event hot
	// path never hashes a location name.
	locAt := make([][]int32, len(p.Threads))
	for ti := range p.Threads {
		code := p.Threads[ti].Code
		locAt[ti] = make([]int32, len(code))
		for pc, in := range code {
			locAt[ti][pc] = -1
			var name prog.Loc
			switch op := in.(type) {
			case prog.Load:
				name = op.Src
			case prog.Store:
				name = op.Dst
			default:
				continue
			}
			loc, ok := tb.LocIndex(name)
			if !ok {
				return false, fmt.Errorf("schedgen: undeclared location %q", name)
			}
			locAt[ti][pc] = loc
		}
	}

	// Zipf redirection table for LocSkew: the nonatomic locations in
	// dense-index order (rank order) and the normalised CDF of their
	// 1/(rank+1)^s weights. One binary search per nonatomic event.
	var skewLocs []int32
	var skewCDF []float64
	if opt.LocSkew > 0 {
		for i, d := range decls {
			if d.Kind == prog.NonAtomic {
				skewLocs = append(skewLocs, int32(i))
			}
		}
		if len(skewLocs) > 1 {
			skewCDF = make([]float64, len(skewLocs))
			sum := 0.0
			for i := range skewLocs {
				sum += 1 / math.Pow(float64(i+1), opt.LocSkew)
				skewCDF[i] = sum
			}
			for i := range skewCDF {
				skewCDF[i] /= sum
			}
		} else {
			skewLocs = nil // nothing to skew toward
		}
	}

	// Mutable thread states.
	states := make([]prog.ThreadState, len(p.Threads))
	for i := range states {
		states[i] = prog.NewThreadState()
	}
	runnable := make([]int, 0, len(p.Threads))
	for i := range p.Threads {
		runnable = append(runnable, i)
	}

	drop := func(t int) {
		for i, u := range runnable {
			if u == t {
				runnable = append(runnable[:i], runnable[i+1:]...)
				return
			}
		}
	}

	// pick chooses the next thread to run under the policy.
	cur := -1 // current bursty thread
	pick := func() int {
		switch opt.Policy {
		case Unfair:
			// Geometric preference for low indices: walk the runnable
			// list, taking each with probability 1/2.
			for _, t := range runnable {
				if r.intn(2) == 0 {
					return t
				}
			}
			return runnable[len(runnable)-1]
		case Bursty:
			if cur >= 0 && r.intn(burstMean) != 0 {
				for _, t := range runnable {
					if t == cur {
						return t
					}
				}
			}
			cur = runnable[r.intn(len(runnable))]
			return cur
		default:
			return runnable[r.intn(len(runnable))]
		}
	}

	emitted := 0
	for len(runnable) > 0 {
		if opt.MaxEvents > 0 && emitted >= opt.MaxEvents {
			return false, nil
		}
		t := pick()
		st := &states[t]
		code := p.Threads[t].Code
		pend, err := prog.StepSilentInPlace(code, st, prog.MaxSilentStepsHint)
		if err != nil {
			return false, fmt.Errorf("schedgen: thread %d: %w", t, err)
		}
		if pend.Kind == prog.OpHalted {
			drop(t)
			if cur == t {
				cur = -1
			}
			if opt.EmitHalts {
				emitted++
				if err := emit(monitor.Event{Thread: int32(t), Kind: monitor.KindHalt}); err != nil {
					return false, err
				}
			}
			continue
		}
		// StepSilentInPlace leaves PC at the pending Load/Store.
		loc := locAt[t][st.PC]
		if skewLocs != nil && decls[loc].Kind == prog.NonAtomic {
			// Redirect the access along the Zipf CDF. The top 53 bits of
			// one xorshift draw give a uniform float in [0,1) — platform-
			// stable, so skewed streams stay deterministic per seed.
			u := float64(r.next()>>11) / (1 << 53)
			loc = skewLocs[skewIndex(skewCDF, u)]
		}
		ev := monitor.Event{Thread: int32(t), Loc: loc}
		kind := decls[loc].Kind
		if pend.Kind == prog.OpRead {
			var v prog.Val
			switch kind {
			case prog.Atomic:
				ev.Kind = monitor.ReadAT
				v = atVals[loc]
			case prog.ReleaseAcquire, prog.NonAtomic:
				c := &cells[loc]
				tm, val := c.latest()
				if opt.StaleReadPct > 0 && c.n > 1 && r.intn(100) < opt.StaleReadPct {
					tm, val = c.at(1 + r.intn(c.n-1))
				}
				v = val
				if kind == prog.ReleaseAcquire {
					ev.Kind = monitor.ReadRA
					ev.Time = ts.FromInt(tm)
				} else {
					ev.Kind = monitor.ReadNA
					ev.Time = ts.FromInt(tm)
				}
			}
			st.Regs[pend.Dst] = v
			st.PC++
		} else {
			switch kind {
			case prog.Atomic:
				ev.Kind = monitor.WriteAT
				atVals[loc] = pend.Val
			case prog.ReleaseAcquire:
				ev.Kind = monitor.WriteRA
				ev.Time = ts.FromInt(cells[loc].push(pend.Val))
			default:
				ev.Kind = monitor.WriteNA
				ev.Time = ts.FromInt(cells[loc].push(pend.Val))
			}
			st.PC++
		}
		emitted++
		if err := emit(ev); err != nil {
			return false, err
		}
	}
	return true, nil
}
