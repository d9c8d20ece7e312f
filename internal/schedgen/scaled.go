package schedgen

import (
	"flag"
	"fmt"
	"math"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
)

// Scaled is one generated workload: a progsynth.Scaled program sized
// for Events events, and the schedule to run it under. It is the one
// description of a generated run that cmd/racemon and racemond -drive
// share — the same flags, the same validation, the same program and
// options.
type Scaled struct {
	Seed    int64
	Events  int
	Threads int
	Policy  Policy
	// Locs, Atomics and RAs size the nonatomic, atomic and
	// release-acquire location pools.
	Locs, Atomics, RAs int
	// Stale, Halts and Skew are Options.StaleReadPct, EmitHalts and
	// LocSkew.
	Stale int
	Halts bool
	Skew  float64
	// PrivateLocs and PrivatePct are progsynth.ScaledConfig's
	// thread-private pools.
	PrivateLocs, PrivatePct int
}

// Flags registers the generation flags both commands take — -events
// -threads -policy -locs -atomics -ra -stale -halts — on fs, bound to
// s's fields, whose current values are the defaults.
func (s *Scaled) Flags(fs *flag.FlagSet) {
	fs.IntVar(&s.Events, "events", s.Events, "schedule length in events")
	fs.IntVar(&s.Threads, "threads", s.Threads, "thread count of the generated program")
	fs.Var(&s.Policy, "policy", "scheduling policy: fair|unfair|bursty")
	fs.IntVar(&s.Locs, "locs", s.Locs, "nonatomic location count")
	fs.IntVar(&s.Atomics, "atomics", s.Atomics, "atomic location count")
	fs.IntVar(&s.RAs, "ra", s.RAs, "release-acquire location count")
	fs.IntVar(&s.Stale, "stale", s.Stale, "percent of reads returning stale values (0..100)")
	fs.BoolVar(&s.Halts, "halts", s.Halts, "emit thread-retirement events when generated threads complete")
}

// Check refuses a workload the generator or the wire format cannot
// carry, so no run fails after monitoring began: the event, thread and
// nonatomic location counts must be ≥ 1 (progsynth draws from the
// nonatomic pool, and a zero thread count would silently select its
// defaults), the atomic, release-acquire and private pools ≥ 0, both
// percentages in 0..100, the skew finite and ≥ 0, and the program's
// trace header must fit the wire format: its shape first
// (monitor.CheckShape, before any program is built), then the whole
// header, names included (monitor.CheckHeader).
func (s Scaled) Check() error {
	if s.Events < 1 || s.Threads < 1 || s.Locs < 1 || s.Atomics < 0 || s.RAs < 0 || s.PrivateLocs < 0 {
		return fmt.Errorf("schedgen: events, threads and nonatomic locations must be ≥ 1, atomic, release-acquire and private locations ≥ 0 (got %d, %d, %d; %d, %d, %d)",
			s.Events, s.Threads, s.Locs, s.Atomics, s.RAs, s.PrivateLocs)
	}
	if s.Stale < 0 || s.Stale > 100 || s.PrivatePct < 0 || s.PrivatePct > 100 {
		return fmt.Errorf("schedgen: stale-read and private percentages must be in 0..100 (got %d, %d)", s.Stale, s.PrivatePct)
	}
	if !(s.Skew >= 0) || math.IsInf(s.Skew, 1) {
		return fmt.Errorf("schedgen: skew must be finite and ≥ 0 (got %v)", s.Skew)
	}
	// Summed in float64 so that absurd counts saturate instead of
	// wrapping below the limit.
	locs := float64(s.Locs) + float64(s.Atomics) + float64(s.RAs) + float64(s.Threads)*float64(s.PrivateLocs)
	if err := monitor.CheckShape(s.Threads, int(min(locs, math.MaxInt32))); err != nil {
		return err
	}
	tb, _ := s.Program()
	return monitor.CheckHeader(monitor.Header{Threads: tb.Threads(), Decls: tb.Decls()})
}

// Program builds the workload's program, with loop counts sized so no
// thread halts before the schedule reaches Events, and returns its
// table (which carries the program) and its name.
func (s Scaled) Program() (*monitor.Table, string) {
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = s.Threads
	cfg.NonAtomic = s.Locs
	cfg.Atomics = s.Atomics
	cfg.RAs = s.RAs
	cfg.PrivateLocs = s.PrivateLocs
	cfg.PrivatePct = s.PrivatePct
	cfg.Iters = cfg.IterationsFor(s.Events)
	p := progsynth.Scaled(s.Seed, cfg)
	return monitor.NewTable(p), p.Name
}

// Options returns the schedule options of the workload.
func (s Scaled) Options() Options {
	return Options{
		Policy: s.Policy, Seed: s.Seed, MaxEvents: s.Events,
		StaleReadPct: s.Stale, EmitHalts: s.Halts, LocSkew: s.Skew,
	}
}
