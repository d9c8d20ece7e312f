package axiomatic

import (
	"fmt"

	"localdrf/internal/explore"
	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// localEvent is an event of a single thread's local execution, before
// global numbering.
type localEvent struct {
	loc     prog.Loc
	isWrite bool
	val     prog.Val
}

// localExec is one possible execution of a single thread: its events in
// program order and the resulting register file. Read values are guessed
// from the value domain; rf enumeration later validates the guesses.
type localExec struct {
	events []localEvent
	regs   map[prog.Reg]prog.Val
}

// maxEventsPerThread bounds local executions; the generation rules of
// fig. 2 would happily enumerate unbounded event sequences for looping
// threads, which the consistency check could never catch.
const maxEventsPerThread = 64

// valueDomain is p's read-value domain: every thread's local executions
// under the domain so far, then their writes.
func valueDomain(p *prog.Program) (Domain, error) {
	return ValueDomain(p.Locs, func(dom Domain, store func(prog.Loc, prog.Val)) error {
		execs, err := allLocalExecs(p, dom)
		if err != nil {
			return err
		}
		for _, perThread := range execs {
			for _, le := range perThread {
				for _, ev := range le.events {
					if ev.isWrite {
						store(ev.loc, ev.val)
					}
				}
			}
		}
		return nil
	})
}

// allLocalExecs enumerates the local executions of every thread given a
// read-value domain.
func allLocalExecs(p *prog.Program, dom Domain) ([][]localExec, error) {
	out := make([][]localExec, len(p.Threads))
	for i, t := range p.Threads {
		execs, err := threadExecs(t.Code, dom)
		if err != nil {
			return nil, fmt.Errorf("thread %s: %w", t.Name, err)
		}
		out[i] = execs
	}
	return out, nil
}

func threadExecs(code []prog.Instr, dom Domain) ([]localExec, error) {
	var out []localExec
	var walk func(st prog.ThreadState, events []localEvent) error
	walk = func(st prog.ThreadState, events []localEvent) error {
		if len(events) > maxEventsPerThread {
			return fmt.Errorf("axiomatic: more than %d events in one thread", maxEventsPerThread)
		}
		st2, pend, err := prog.StepSilent(code, st, prog.MaxSilentStepsHint)
		if err != nil {
			return err
		}
		switch pend.Kind {
		case prog.OpHalted:
			cp := make([]localEvent, len(events))
			copy(cp, events)
			out = append(out, localExec{events: cp, regs: st2.Regs})
			return nil
		case prog.OpWrite:
			ev := localEvent{loc: pend.Loc, isWrite: true, val: pend.Val}
			return walk(prog.ApplyWrite(st2), append(events, ev))
		case prog.OpRead:
			for _, v := range dom.Vals(pend.Loc) {
				ev := localEvent{loc: pend.Loc, isWrite: false, val: v}
				if err := walk(prog.ApplyRead(st2, pend, v), append(events, ev)); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("axiomatic: unknown pending op")
	}
	if err := walk(prog.NewThreadState(), nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Enumerate yields every *consistent* execution of p, invoking visit for
// each. Candidate executions failing the axioms are filtered out. The
// visit callback may return false to stop early.
func Enumerate(p *prog.Program, visit func(*Execution) bool) error {
	return enumerate(p, false, visit)
}

// EnumerateCandidates yields every candidate execution (consistent or
// not) whose rf is value-coherent; used to validate thms. 17/18, which
// quantify over candidate executions.
func EnumerateCandidates(p *prog.Program, visit func(*Execution) bool) error {
	return enumerate(p, true, visit)
}

func enumerate(p *prog.Program, includeInconsistent bool, visit func(*Execution) bool) error {
	dom, err := valueDomain(p)
	if err != nil {
		return err
	}
	perThread, err := allLocalExecs(p, dom)
	if err != nil {
		return err
	}
	// The product of thread-local executions, each a graph to search.
	odometer(lens(perThread), func(choice []int) bool {
		return !enumerateGraphs(p, perThread, choice, includeInconsistent, visit)
	})
	return nil
}

// enumerateGraphs builds the event graph for one combination of local
// executions and visits its candidates. It reports whether visit stopped.
func enumerateGraphs(p *prog.Program, perThread [][]localExec, choice []int,
	includeInconsistent bool, visit func(*Execution) bool) bool {

	// Assemble events: initial writes first, then per-thread in order.
	var events []Event
	for _, l := range p.SortedLocs() {
		events = append(events, Event{
			Thread: -1, Loc: l, IsWrite: true, Val: prog.V0,
			Atomic: p.IsAtomic(l), RA: p.IsRA(l),
		})
	}
	var regs []map[prog.Reg]prog.Val
	for t := range perThread {
		le := perThread[t][choice[t]]
		for n, ev := range le.events {
			events = append(events, Event{
				Thread: t, Seq: n, Loc: ev.loc, IsWrite: ev.isWrite,
				Val: ev.val, Atomic: p.IsAtomic(ev.loc), RA: p.IsRA(ev.loc),
			})
		}
		regs = append(regs, le.regs)
	}
	acc := accesses(events)
	po := ProgramOrder(acc)
	return Candidates(acc, func(rf, co rel.Rel) bool {
		x := &Execution{Prog: p, Events: events, PO: po, RF: rf, CO: co, Regs: regs}
		if !includeInconsistent && !x.Consistent() {
			return true
		}
		return visit(x)
	})
}

// accesses returns the events as the candidate search sees them.
func accesses(events []Event) []Access {
	out := make([]Access, len(events))
	for i, e := range events {
		out[i] = Access{Thread: e.Thread, Seq: e.Seq, Loc: e.Loc, IsWrite: e.IsWrite, Val: e.Val}
	}
	return out
}

// Outcomes computes the outcome set of all consistent executions, in the
// same format as package explore, enabling the empirical equivalence
// check of thms. 15/16.
func Outcomes(p *prog.Program) (*explore.Set, error) {
	set := explore.NewSet()
	err := Enumerate(p, func(x *Execution) bool {
		o := explore.Outcome{Mem: x.FinalMem()}
		for _, regs := range x.Regs {
			m := map[prog.Reg]prog.Val{}
			for k, v := range regs {
				m[k] = v
			}
			o.Regs = append(o.Regs, m)
		}
		set.Add(o)
		return true
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}
