package hw

import (
	"testing"

	"localdrf/internal/prog"
)

// handProgram builds a two-thread hardware program directly (bypassing
// compile) so the enumeration internals can be unit-tested.
func handMP() *Program {
	return &Program{
		Name: "hand-MP",
		Locs: map[prog.Loc]prog.LocKind{"x": prog.NonAtomic, "f": prog.NonAtomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpSt, Ord: Plain, Loc: "x", A: prog.I(1)},
				{Op: OpFence, Fence: DmbFull},
				{Op: OpSt, Ord: Plain, Loc: "f", A: prog.I(1)},
			}},
			{Name: "P1", Code: []Instr{
				{Op: OpLd, Ord: Plain, Loc: "f", Dst: "r0"},
				{Op: OpFence, Fence: DmbFull},
				{Op: OpLd, Ord: Plain, Loc: "x", Dst: "r1"},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{}, {"r0": true, "r1": true}},
	}
}

func collect(t *testing.T, p *Program, consistent func(*Execution) bool) []*Execution {
	t.Helper()
	var out []*Execution
	err := Enumerate(p, consistent, func(x *Execution) bool {
		// Copy nothing: executions are fresh per visit in this
		// implementation; keep the pointer.
		out = append(out, x)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEnumerateProducesCandidates(t *testing.T) {
	execs := collect(t, handMP(), func(*Execution) bool { return true })
	if len(execs) == 0 {
		t.Fatal("no candidate executions")
	}
	// Every execution has 2 initial writes + 2 writes + 2 reads.
	for _, x := range execs {
		if len(x.Events) != 6 {
			t.Fatalf("event count = %d, want 6", len(x.Events))
		}
	}
}

func TestPOConstruction(t *testing.T) {
	execs := collect(t, handMP(), func(*Execution) bool { return true })
	x := execs[0]
	// Find P0's two stores; they must be po-ordered.
	var wx, wf = -1, -1
	for i, e := range x.Events {
		if e.Thread == 0 && e.Loc == "x" {
			wx = i
		}
		if e.Thread == 0 && e.Loc == "f" {
			wf = i
		}
	}
	if !x.PO.Has(wx, wf) || x.PO.Has(wf, wx) {
		t.Error("program order not constructed correctly")
	}
	// Initial writes participate in no po edges.
	for i, e := range x.Events {
		if !e.IsInit() {
			continue
		}
		for j := range x.Events {
			if x.PO.Has(i, j) || x.PO.Has(j, i) {
				t.Error("initial write in po")
			}
		}
	}
}

func TestDmbRelations(t *testing.T) {
	execs := collect(t, handMP(), func(*Execution) bool { return true })
	x := execs[0]
	dmbLd := x.DmbLdRel()
	dmbSt := x.DmbStRel()
	var wx, wf = -1, -1
	for i, e := range x.Events {
		if e.Thread == 0 && e.Loc == "x" {
			wx = i
		}
		if e.Thread == 0 && e.Loc == "f" {
			wf = i
		}
	}
	// The dmb ish between the stores shows up in both relations.
	if !dmbLd.Has(wx, wf) || !dmbSt.Has(wx, wf) {
		t.Error("full fence missing from dmbld/dmbst relations")
	}
}

func TestCtrlTracking(t *testing.T) {
	p := &Program{
		Name: "ctrl",
		Locs: map[prog.Loc]prog.LocKind{"x": prog.NonAtomic, "y": prog.NonAtomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpLd, Ord: Plain, Loc: "x", Dst: "r"},
				{Op: OpBranchDep, Cond: "r"},
				{Op: OpSt, Ord: Plain, Loc: "y", A: prog.I(1)},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{"r": true}},
	}
	execs := collect(t, p, func(*Execution) bool { return true })
	for _, x := range execs {
		ctrl := x.Ctrl()
		var rd, wr = -1, -1
		for i, e := range x.Events {
			if e.Thread == 0 && !e.IsWrite {
				rd = i
			}
			if e.Thread == 0 && e.IsWrite {
				wr = i
			}
		}
		if !ctrl.Has(rd, wr) {
			t.Fatal("BranchDep did not induce a ctrl edge from the load to the store")
		}
	}
}

func TestCtrlThroughALU(t *testing.T) {
	// The dependency survives register computation: r2 := r + 1, branch
	// on r2.
	p := &Program{
		Name: "ctrl-alu",
		Locs: map[prog.Loc]prog.LocKind{"x": prog.NonAtomic, "y": prog.NonAtomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpLd, Ord: Plain, Loc: "x", Dst: "r"},
				{Op: OpAdd, Dst: "r2", A: prog.R("r"), B: prog.I(1)},
				{Op: OpBranchDep, Cond: "r2"},
				{Op: OpSt, Ord: Plain, Loc: "y", A: prog.I(1)},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{"r": true}},
	}
	execs := collect(t, p, func(*Execution) bool { return true })
	for _, x := range execs {
		var rd, wr = -1, -1
		for i, e := range x.Events {
			if e.Thread == 0 && !e.IsWrite {
				rd = i
			}
			if e.Thread == 0 && e.IsWrite {
				wr = i
			}
		}
		if !x.Ctrl().Has(rd, wr) {
			t.Fatal("taint lost through ALU op")
		}
	}
}

func TestMovBreaksNothingOverwritesTaint(t *testing.T) {
	// mov r, #0 after the load overwrites the register: branching on r
	// afterwards is NOT a dependency on the load.
	p := &Program{
		Name: "taint-kill",
		Locs: map[prog.Loc]prog.LocKind{"x": prog.NonAtomic, "y": prog.NonAtomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpLd, Ord: Plain, Loc: "x", Dst: "r"},
				{Op: OpMov, Dst: "r", A: prog.I(0)},
				{Op: OpBranchDep, Cond: "r"},
				{Op: OpSt, Ord: Plain, Loc: "y", A: prog.I(1)},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{}},
	}
	execs := collect(t, p, func(*Execution) bool { return true })
	for _, x := range execs {
		var rd, wr = -1, -1
		for i, e := range x.Events {
			if e.Thread == 0 && !e.IsWrite {
				rd = i
			}
			if e.Thread == 0 && e.IsWrite {
				wr = i
			}
		}
		if x.Ctrl().Has(rd, wr) {
			t.Fatal("ctrl edge survived a constant mov that killed the taint")
		}
	}
}

func TestRMWPairing(t *testing.T) {
	p := &Program{
		Name: "rmw",
		Locs: map[prog.Loc]prog.LocKind{"a": prog.Atomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpLd, Ord: AcquireX, Loc: "a", Dst: "scratch"},
				{Op: OpSt, Ord: ReleaseX, Loc: "a", A: prog.I(1), RMWPair: true},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{}},
	}
	execs := collect(t, p, func(*Execution) bool { return true })
	for _, x := range execs {
		pairs := x.RMW.Pairs()
		if len(pairs) != 1 {
			t.Fatalf("rmw pairs = %v, want exactly one", pairs)
		}
		rd, wr := pairs[0][0], pairs[0][1]
		if x.Events[rd].IsWrite || !x.Events[wr].IsWrite {
			t.Fatal("rmw pair has wrong event kinds")
		}
		if !x.Events[rd].Acq || !x.Events[wr].Rel {
			t.Fatal("exclusive pair not acquire/release annotated")
		}
		if !x.IsWA(wr) {
			t.Fatal("IsWA should identify the paired write")
		}
	}
}

func TestRMWAtomicityAxiom(t *testing.T) {
	// Two RMW increments of the same cell plus a plain write: the axiom
	// rmw ∩ (fre; coe) = ∅ must reject executions where the plain write
	// slips between a pair's read and write.
	p := &Program{
		Name: "rmw-atomicity",
		Locs: map[prog.Loc]prog.LocKind{"a": prog.Atomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{
				{Op: OpLd, Ord: AcquireX, Loc: "a", Dst: "s0"},
				{Op: OpSt, Ord: ReleaseX, Loc: "a", A: prog.I(1), RMWPair: true},
			}},
			{Name: "P1", Code: []Instr{
				{Op: OpSt, Ord: Plain, Loc: "a", A: prog.I(2)},
			}},
		},
		ObsRegs: []map[prog.Reg]bool{{"s0": true}, {}},
	}
	sawIntervening := false
	err := Enumerate(p, func(*Execution) bool { return true }, func(x *Execution) bool {
		// The intervening shape: pair reads from the initial write but
		// the plain write is co-between initial and the pair's write.
		if !x.RMWAtomic() {
			sawIntervening = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawIntervening {
		t.Fatal("enumeration never produced the intervening-write candidate")
	}
}

func TestPOLocAndExternal(t *testing.T) {
	execs := collect(t, handMP(), func(*Execution) bool { return true })
	x := execs[0]
	// poloc relates same-location same-thread accesses only; in hand-MP
	// each thread touches two distinct locations, so poloc is empty.
	if !x.POLoc().Empty() {
		t.Errorf("poloc = %v, want empty", x.POLoc())
	}
	// rf edges to another thread are external.
	rfe := x.External(x.RF)
	for _, pr := range rfe.Pairs() {
		if x.Events[pr[0]].Thread == x.Events[pr[1]].Thread && !x.Events[pr[0]].IsInit() {
			t.Error("external rf within a thread")
		}
	}
}

func TestValueDomainPerLocation(t *testing.T) {
	p := handMP()
	dom, err := valueDomain(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []prog.Loc{"x", "f"} {
		vals := dom.Vals(l)
		if len(vals) != 2 || vals[0] != 0 || vals[1] != 1 {
			t.Errorf("dom[%s] = %v, want [0 1]", l, vals)
		}
	}
}

func TestDivergentLoopDetected(t *testing.T) {
	p := &Program{
		Name: "loop",
		Locs: map[prog.Loc]prog.LocKind{"x": prog.NonAtomic},
		Threads: []Thread{
			{Name: "P0", Code: []Instr{{Op: OpJmp, Target: 0}}},
		},
		ObsRegs: []map[prog.Reg]bool{{}},
	}
	err := Enumerate(p, func(*Execution) bool { return true }, func(*Execution) bool { return true })
	if err == nil {
		t.Fatal("divergent loop not detected")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpLd, Ord: Acquire, Loc: "x", Dst: "r"}, "ldar r, [x]"},
		{Instr{Op: OpSt, Ord: ReleaseX, Loc: "x", A: prog.I(1)}, "stlxr 1, [x]"},
		{Instr{Op: OpFence, Fence: DmbLd}, "dmb ld"},
		{Instr{Op: OpFence, Fence: DmbSt}, "dmb st"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
