package axiomatic

// The trace-to-execution mapping |Σ| of §6.1, used to state thms. 15/16:
// every operational trace induces a candidate execution
// (|Σ|, poΣ, rfΣ, coΣ), and thm. 15 says that execution is consistent.
// FromTrace constructs it:
//
//   - poΣ: trace order restricted to same-thread events;
//   - rfΣ: for atomic locations, the most recent write in trace order
//     (or the initial write); for nonatomic and release-acquire
//     locations, the unique write with the same timestamp (or the
//     initial write for timestamp 0);
//   - coΣ: for atomic locations, trace order of writes; for timestamped
//     locations, timestamp order — which §6.1 notes may disagree with
//     trace order.
//
// The tests apply FromTrace to every trace of the litmus programs and
// random programs and check consistency — the executable form of
// thm. 15 at trace granularity (outcome-set equality being the coarser
// check in package explore's tests).

import (
	"fmt"
	"sort"

	"localdrf/internal/explore"
	"localdrf/internal/prog"
	"localdrf/internal/rel"
	"localdrf/internal/ts"
)

// FromTrace builds the candidate execution |Σ| of a complete trace of p.
// The trace must come from package explore's exploration of p (its
// transitions carry the timestamps the construction needs).
func FromTrace(p *prog.Program, trace explore.Trace) (*Execution, error) {
	// Events: initial writes first (as in enumerate), then one event per
	// memory transition, numbered per thread.
	var events []Event
	initIdx := map[prog.Loc]int{}
	for _, l := range p.SortedLocs() {
		initIdx[l] = len(events)
		events = append(events, Event{
			Thread: -1, Loc: l, IsWrite: true, Val: prog.V0,
			Atomic: p.IsAtomic(l), RA: p.IsRA(l),
		})
	}
	perThreadSeq := map[int]int{}
	evOfTransition := make([]int, len(trace))
	for ti, tr := range trace {
		seq := perThreadSeq[tr.Thread]
		perThreadSeq[tr.Thread] = seq + 1
		evOfTransition[ti] = len(events)
		events = append(events, Event{
			Thread: tr.Thread, Seq: seq, Loc: tr.Loc, IsWrite: tr.IsWrite,
			Val: tr.Val, Atomic: p.IsAtomic(tr.Loc), RA: p.IsRA(tr.Loc),
		})
	}
	n := len(events)

	po := ProgramOrder(accesses(events))
	rf := rel.New(n)
	co := rel.New(n)

	// Atomic locations: rf from the most recent write in trace order; co
	// is trace order of writes (with the initial write first).
	for _, l := range p.AtomicLocs() {
		lastWrite := initIdx[l]
		var writes []int = []int{initIdx[l]}
		for ti, tr := range trace {
			if tr.Loc != l {
				continue
			}
			ev := evOfTransition[ti]
			if tr.IsWrite {
				writes = append(writes, ev)
				lastWrite = ev
			} else {
				rf.Set(lastWrite, ev)
			}
		}
		for a := 0; a < len(writes); a++ {
			for b := a + 1; b < len(writes); b++ {
				co.Set(writes[a], writes[b])
			}
		}
	}

	// Timestamped locations (nonatomic and RA): rf matches timestamps;
	// co orders writes by timestamp.
	type tsWrite struct {
		ev   int
		time ts.Time
	}
	for _, l := range append(p.NonAtomicLocs(), p.RALocs()...) {
		writes := []tsWrite{{ev: initIdx[l], time: ts.Zero}}
		for ti, tr := range trace {
			if tr.Loc != l || !tr.IsWrite {
				continue
			}
			writes = append(writes, tsWrite{ev: evOfTransition[ti], time: tr.Time})
		}
		for ti, tr := range trace {
			if tr.Loc != l || tr.IsWrite {
				continue
			}
			found := false
			for _, w := range writes {
				if w.time.Equal(tr.Time) {
					rf.Set(w.ev, evOfTransition[ti])
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("axiomatic: read of %s at %v has no matching write in trace", l, tr.Time)
			}
		}
		sort.Slice(writes, func(a, b int) bool { return writes[a].time.Less(writes[b].time) })
		for a := 0; a < len(writes); a++ {
			for b := a + 1; b < len(writes); b++ {
				co.Set(writes[a].ev, writes[b].ev)
			}
		}
	}

	return &Execution{Prog: p, Events: events, PO: po, RF: rf, CO: co}, nil
}

// CheckTheorem15 verifies, for every complete trace of p, that |Σ| is a
// consistent execution — the statement of thm. 15. maxTraces guards the
// enumeration (0 = unbounded).
func CheckTheorem15(p *prog.Program, maxTraces int) error {
	var failure error
	err := explore.Traces(p, explore.Options{}, maxTraces, func(tr explore.Trace) bool {
		x, err := FromTrace(p, tr)
		if err != nil {
			failure = err
			return false
		}
		if err := x.CheckConsistent(); err != nil {
			failure = fmt.Errorf("axiomatic: thm 15 failed on trace %v: %w\n%s", tr, err, x.Describe())
			return false
		}
		// On base-model traces, the §7 recharacterisations must agree
		// with the primary definitions as well.
		if err := x.CheckTheorem17(); err != nil {
			failure = err
			return false
		}
		if err := x.CheckTheorem18(); err != nil {
			failure = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return failure
}
