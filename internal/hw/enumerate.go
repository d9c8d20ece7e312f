package hw

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"localdrf/internal/axiomatic"
	"localdrf/internal/engine"
	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// levent is a thread-local event before global numbering.
type levent struct {
	loc         prog.Loc
	isWrite     bool
	val         prog.Val
	acq, rel    bool
	ldF, stF    int
	ctrl        map[int]bool
	rmwWithPrev bool
}

// localExec is one execution of a hardware thread.
type localExec struct {
	events []levent
	regs   map[prog.Reg]prog.Val
}

const maxEventsPerThread = 96

// maxLocalSteps bounds a single local execution; hardware code is
// loop-free apart from (modelled-away) exclusive retries.
const maxLocalSteps = 4096

// threadExecs enumerates the local executions of one hardware thread,
// tracking register taint (which read events a register's value depends
// on), control dependencies and fence counts.
func threadExecs(code []Instr, dom axiomatic.Domain) ([]localExec, error) {
	var out []localExec
	type state struct {
		pc       int
		regs     map[prog.Reg]prog.Val
		taint    map[prog.Reg]map[int]bool
		ctrl     map[int]bool
		ldF, stF int
		reads    int // read events so far (their local sequence numbers)
		lastLd   int // event index of most recent load, for RMW pairing
		steps    int
	}
	cloneSet := func(s map[int]bool) map[int]bool {
		c := make(map[int]bool, len(s))
		for k := range s {
			c[k] = true
		}
		return c
	}
	var walk func(st state, events []levent) error
	eval := func(st state, o prog.Operand) prog.Val {
		if o.IsReg {
			return st.regs[o.Reg]
		}
		return o.Imm
	}
	taintOf := func(st state, o prog.Operand) map[int]bool {
		if o.IsReg {
			return st.taint[o.Reg]
		}
		return nil
	}
	walk = func(st state, events []levent) error {
		st.steps++
		if st.steps > maxLocalSteps || len(events) > maxEventsPerThread {
			return fmt.Errorf("hw: local execution too long (divergent loop?)")
		}
		if st.pc < 0 || st.pc >= len(code) {
			cp := make([]levent, len(events))
			copy(cp, events)
			out = append(out, localExec{events: cp, regs: st.regs})
			return nil
		}
		in := code[st.pc]
		next := st
		next.pc++
		switch in.Op {
		case OpLd:
			seq := len(events)
			for _, v := range dom.Vals(in.Loc) {
				ns := next
				ns.regs = cloneMap(st.regs)
				ns.taint = cloneTaint(st.taint)
				ns.regs[in.Dst] = v
				ns.taint[in.Dst] = map[int]bool{seq: true}
				ns.reads = st.reads + 1
				ns.lastLd = seq
				ev := levent{
					loc: in.Loc, isWrite: false, val: v,
					acq: in.Ord == Acquire || in.Ord == AcquireX,
					ldF: st.ldF, stF: st.stF, ctrl: cloneSet(st.ctrl),
				}
				if err := walk(ns, append(events, ev)); err != nil {
					return err
				}
			}
			return nil
		case OpSt:
			ev := levent{
				loc: in.Loc, isWrite: true, val: eval(st, in.A),
				rel: in.Ord == Release || in.Ord == ReleaseX,
				ldF: st.ldF, stF: st.stF, ctrl: cloneSet(st.ctrl),
				rmwWithPrev: in.RMWPair,
			}
			return walk(next, append(events, ev))
		case OpFence:
			switch in.Fence {
			case DmbLd:
				next.ldF++
			case DmbSt:
				next.stF++
			case DmbFull:
				next.ldF++
				next.stF++
			}
			return walk(next, events)
		case OpBranchDep:
			next.ctrl = cloneSet(st.ctrl)
			for k := range st.taint[in.Cond] {
				next.ctrl[k] = true
			}
			return walk(next, events)
		case OpMov:
			next.regs = cloneMap(st.regs)
			next.taint = cloneTaint(st.taint)
			next.regs[in.Dst] = eval(st, in.A)
			next.taint[in.Dst] = cloneSet(taintOf(st, in.A))
			return walk(next, events)
		case OpAdd, OpMul, OpCmpEq:
			next.regs = cloneMap(st.regs)
			next.taint = cloneTaint(st.taint)
			a, bv := eval(st, in.A), eval(st, in.B)
			var v prog.Val
			switch in.Op {
			case OpAdd:
				v = a + bv
			case OpMul:
				v = a * bv
			default:
				if a == bv {
					v = 1
				}
			}
			next.regs[in.Dst] = v
			t := cloneSet(taintOf(st, in.A))
			for k := range taintOf(st, in.B) {
				t[k] = true
			}
			next.taint[in.Dst] = t
			return walk(next, events)
		case OpJmp:
			next.pc = in.Target
			return walk(next, events)
		case OpJmpZ, OpJmpNZ:
			// A real conditional branch: control flow follows the
			// register value, and everything after the branch becomes
			// control-dependent on the reads feeding the condition.
			next.ctrl = cloneSet(st.ctrl)
			for k := range st.taint[in.Cond] {
				next.ctrl[k] = true
			}
			taken := st.regs[in.Cond] == 0
			if in.Op == OpJmpNZ {
				taken = !taken
			}
			if taken {
				next.pc = in.Target
			}
			return walk(next, events)
		case OpNop:
			return walk(next, events)
		}
		return fmt.Errorf("hw: unknown op %v", in.Op)
	}
	init := state{
		regs:   map[prog.Reg]prog.Val{},
		taint:  map[prog.Reg]map[int]bool{},
		ctrl:   map[int]bool{},
		lastLd: -1,
	}
	if err := walk(init, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func cloneMap(m map[prog.Reg]prog.Val) map[prog.Reg]prog.Val {
	c := make(map[prog.Reg]prog.Val, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func cloneTaint(m map[prog.Reg]map[int]bool) map[prog.Reg]map[int]bool {
	c := make(map[prog.Reg]map[int]bool, len(m))
	for k, v := range m {
		s := make(map[int]bool, len(v))
		for i := range v {
			s[i] = true
		}
		c[k] = s
	}
	return c
}

// valueDomain is p's read-value domain (see axiomatic.ValueDomain). A
// thread's writes join the domain before the next thread runs.
func valueDomain(p *Program) (axiomatic.Domain, error) {
	return axiomatic.ValueDomain(p.Locs, func(dom axiomatic.Domain, store func(prog.Loc, prog.Val)) error {
		for _, t := range p.Threads {
			execs, err := threadExecs(t.Code, dom)
			if err != nil {
				return err
			}
			for _, le := range execs {
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

// Enumerate yields every candidate execution of the hardware program that
// the architecture model (consistent) accepts, in a deterministic order
// on the calling goroutine.
func Enumerate(p *Program, consistent func(*Execution) bool, visit func(*Execution) bool) error {
	return EnumerateParallel(p, consistent, 1, func(_ int, x *Execution) bool { return visit(x) })
}

// EnumerateParallel is Enumerate with the candidate space partitioned by
// the per-thread local-execution choice (the outer axis of the
// enumeration) and the partitions explored by parallel workers on the
// engine's task runner (parallelism 0 means GOMAXPROCS). visit may be
// called concurrently from different workers; the worker index lets
// callers keep lock-free per-worker accumulators. Returning false from
// any visit cancels the whole enumeration.
func EnumerateParallel(p *Program, consistent func(*Execution) bool, parallelism int, visit func(worker int, x *Execution) bool) error {
	dom, err := valueDomain(p)
	if err != nil {
		return err
	}
	perThread := make([][]localExec, len(p.Threads))
	combos := 1
	for i, t := range p.Threads {
		execs, err := threadExecs(t.Code, dom)
		if err != nil {
			return fmt.Errorf("hw: thread %s: %w", t.Name, err)
		}
		if len(execs) == 0 {
			return nil
		}
		perThread[i] = execs
		if combos > math.MaxInt/len(execs) {
			return fmt.Errorf("hw: candidate space overflows the partition index (local-execution combinations exceed the int range)")
		}
		combos *= len(execs)
	}
	var stopped atomic.Bool
	return engine.ForEach(parallelism, combos, func(worker, idx int) error {
		if stopped.Load() {
			return nil
		}
		choice := make([]int, len(perThread))
		for t := range perThread {
			choice[t] = idx % len(perThread[t])
			idx /= len(perThread[t])
		}
		enumerateGraphs(p, perThread, choice, consistent, func(x *Execution) bool {
			// Re-check the cancellation flag per execution so partitions
			// already in flight on other workers stop visiting too.
			if stopped.Load() {
				return false
			}
			if !visit(worker, x) {
				stopped.Store(true)
				return false
			}
			return true
		})
		return nil
	})
}

// enumerateGraphs builds the event graph for one combination of local
// executions and visits its candidates that consistent accepts, until
// visit returns false.
func enumerateGraphs(p *Program, perThread [][]localExec, choice []int,
	consistent func(*Execution) bool, visit func(*Execution) bool) {

	var events []Event
	for _, l := range slices.Sorted(maps.Keys(p.Locs)) {
		events = append(events, Event{Thread: -1, Loc: l, IsWrite: true, Val: prog.V0})
	}
	var regs []map[prog.Reg]prog.Val
	for t := range perThread {
		le := perThread[t][choice[t]]
		for n, ev := range le.events {
			events = append(events, Event{
				Thread: t, Seq: n, Loc: ev.loc, IsWrite: ev.isWrite, Val: ev.val,
				Acq: ev.acq, Rel: ev.rel,
				ldFences: ev.ldF, stFences: ev.stF,
				ctrl: ev.ctrl, rmwWithPrev: ev.rmwWithPrev,
			})
		}
		regs = append(regs, le.regs)
	}
	acc := make([]axiomatic.Access, len(events))
	for i, e := range events {
		acc[i] = axiomatic.Access{Thread: e.Thread, Seq: e.Seq, Loc: e.Loc, IsWrite: e.IsWrite, Val: e.Val}
	}
	po := axiomatic.ProgramOrder(acc)
	rmw := po.Filter(func(i, j int) bool { return events[j].rmwWithPrev && events[j].Seq == events[i].Seq+1 })
	axiomatic.Candidates(acc, func(rf, co rel.Rel) bool {
		x := &Execution{Prog: p, Events: events, PO: po, RF: rf, CO: co, RMW: rmw, Regs: regs}
		if !consistent(x) {
			return true
		}
		return visit(x)
	})
}
