// Package hw defines the hardware-level programs and candidate executions
// over which the x86-TSO (fig. 3) and ARMv8 (fig. 4) axiomatic models are
// checked.
//
// Hardware programs are produced by package compile from software
// programs; instructions carry the annotations the hardware models care
// about: load/store ordering flavours (plain, acquire ldar/ldaxr, release
// stlr/stlxr), fences (dmb ld / dmb st / full), dependency-only branches
// (the cbz of the paper's BAL scheme), and read-modify-write pairing for
// exclusives and x86 xchg.
//
// Candidate executions follow §7: they are software candidate executions
// extended with an rmw relation (the Wickerson et al. encoding of RMWs as
// read/write pairs) and, for ARM, the annotations and dependency
// relations (ctrl, dmbld, dmbst) of fig. 4. Enumeration runs each
// thread locally with read values drawn from axiomatic.ValueDomain, then
// hands the event graph to axiomatic.Candidates for every rf × co
// assignment, in its order; the architecture model supplies the
// consistency predicate.
package hw

import (
	"fmt"

	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// Op is the kind of a hardware instruction.
type Op int

const (
	// OpLd is a load; Ord selects ldr / ldar / ldaxr.
	OpLd Op = iota
	// OpSt is a store; Ord selects str / stlr / stlxr.
	OpSt
	// OpFence is a memory barrier; Fence selects dmb ld / dmb st / dmb ish.
	OpFence
	// OpBranchDep is the dependency-only conditional branch of the BAL
	// scheme (cbz R, L; L:): both outcomes fall through, but a control
	// dependency is induced from the reads feeding R to every later event.
	OpBranchDep
	// Register computation and real control flow, mirroring package prog.
	OpMov
	OpAdd
	OpMul
	OpCmpEq
	OpJmp
	OpJmpZ
	OpJmpNZ
	OpNop
)

// Ordering is the flavour of a load or store.
type Ordering int

const (
	// Plain is ldr / str (or x86 mov).
	Plain Ordering = iota
	// Acquire is ldar.
	Acquire
	// AcquireX is ldaxr (exclusive acquire, the read half of an RMW).
	AcquireX
	// Release is stlr.
	Release
	// ReleaseX is stlxr (exclusive release, the write half of an RMW).
	ReleaseX
)

// FenceKind is the flavour of a barrier.
type FenceKind int

const (
	// DmbLd is dmb ld: orders prior reads before subsequent accesses.
	DmbLd FenceKind = iota
	// DmbSt is dmb st: orders prior writes before subsequent writes.
	DmbSt
	// DmbFull is dmb ish: both.
	DmbFull
)

// Instr is one hardware instruction.
type Instr struct {
	Op     Op
	Ord    Ordering
	Fence  FenceKind
	Loc    prog.Loc
	Dst    prog.Reg
	A, B   prog.Operand
	Cond   prog.Reg
	Target int
	// RMWPair marks a store that forms a read-modify-write pair with the
	// immediately preceding load event of the same thread (ldaxr/stlxr,
	// or the two halves of an x86 xchg).
	RMWPair bool
}

func (i Instr) String() string {
	switch i.Op {
	case OpLd:
		name := map[Ordering]string{Plain: "ldr", Acquire: "ldar", AcquireX: "ldaxr"}[i.Ord]
		return fmt.Sprintf("%s %s, [%s]", name, i.Dst, i.Loc)
	case OpSt:
		name := map[Ordering]string{Plain: "str", Release: "stlr", ReleaseX: "stlxr"}[i.Ord]
		return fmt.Sprintf("%s %s, [%s]", name, i.A, i.Loc)
	case OpFence:
		return map[FenceKind]string{DmbLd: "dmb ld", DmbSt: "dmb st", DmbFull: "dmb ish"}[i.Fence]
	case OpBranchDep:
		return fmt.Sprintf("cbz %s, .+1", i.Cond)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", i.Dst, i.A)
	case OpAdd:
		return fmt.Sprintf("add %s, %s, %s", i.Dst, i.A, i.B)
	case OpMul:
		return fmt.Sprintf("mul %s, %s, %s", i.Dst, i.A, i.B)
	case OpCmpEq:
		return fmt.Sprintf("cmpeq %s, %s, %s", i.Dst, i.A, i.B)
	case OpJmp:
		return fmt.Sprintf("b %d", i.Target)
	case OpJmpZ:
		return fmt.Sprintf("cbz %s, %d", i.Cond, i.Target)
	case OpJmpNZ:
		return fmt.Sprintf("cbnz %s, %d", i.Cond, i.Target)
	default:
		return "nop"
	}
}

// Thread is one hardware thread.
type Thread struct {
	Name string
	Code []Instr
}

// Program is a compiled hardware program. Locs carries the original
// atomicity declaration (used only to size value domains and report
// outcomes; the hardware itself has no notion of atomic locations —
// ordering comes from the instruction annotations).
type Program struct {
	Name    string
	Locs    map[prog.Loc]prog.LocKind
	Threads []Thread
	// ObsRegs lists, per thread, the registers whose final values are
	// observable (the registers of the source program); scratch registers
	// introduced by lowering are excluded from outcomes.
	ObsRegs []map[prog.Reg]bool
}

// Event is a node of the hardware event graph.
type Event struct {
	Thread  int
	Seq     int
	Loc     prog.Loc
	IsWrite bool
	Val     prog.Val
	// Acq marks ldar/ldaxr events; Rel marks stlr/stlxr events.
	Acq bool
	Rel bool
	// ldFences / stFences count the dmb ld (resp. dmb st), including dmb
	// ish, instructions executed by this thread before this event; a
	// fence lies between two same-thread events iff the counts differ.
	ldFences int
	stFences int
	// ctrl is the set of same-thread read-event sequence numbers this
	// event is control-dependent on.
	ctrl map[int]bool
	// rmwWithPrev marks write events paired with the preceding read.
	rmwWithPrev bool
}

// IsInit reports whether this is an initial write.
func (e Event) IsInit() bool { return e.Thread < 0 }

func (e Event) String() string {
	k := "R"
	if e.IsWrite {
		k = "W"
	}
	if e.IsInit() {
		return fmt.Sprintf("IW%s=%d", e.Loc, e.Val)
	}
	ann := ""
	if e.Acq {
		ann = "acq"
	}
	if e.Rel {
		ann = "rel"
	}
	return fmt.Sprintf("%s%s%s=%d@%d.%d", k, ann, e.Loc, e.Val, e.Thread, e.Seq)
}

// Execution is a hardware candidate execution.
type Execution struct {
	Prog   *Program
	Events []Event
	PO     rel.Rel
	RF     rel.Rel
	CO     rel.Rel
	RMW    rel.Rel
	Regs   []map[prog.Reg]prog.Val
}

func (x *Execution) n() int { return len(x.Events) }

// FR returns fr = rf⁻¹ ; co.
func (x *Execution) FR() rel.Rel { return x.RF.Inverse().Compose(x.CO) }

// External returns r \ po.
func (x *Execution) External(r rel.Rel) rel.Rel { return r.Minus(x.PO) }

// POLoc returns po restricted to same-location pairs.
func (x *Execution) POLoc() rel.Rel {
	return x.PO.Filter(func(i, j int) bool { return x.Events[i].Loc == x.Events[j].Loc })
}

// Ctrl returns the control-dependency relation: read E1 to event E2 when
// E2 is program-order after a branch whose condition depends on E1.
func (x *Execution) Ctrl() rel.Rel {
	r := rel.New(x.n())
	for j, e := range x.Events {
		for seq := range e.ctrl {
			for i, f := range x.Events {
				if f.Thread == e.Thread && f.Seq == seq {
					r.Set(i, j)
				}
			}
		}
	}
	return r
}

// DmbLdRel returns the pairs of same-thread events separated by a dmb ld
// (or dmb ish).
func (x *Execution) DmbLdRel() rel.Rel {
	return x.PO.Filter(func(i, j int) bool { return x.Events[i].ldFences < x.Events[j].ldFences })
}

// DmbStRel returns the pairs of same-thread events separated by a dmb st
// (or dmb ish).
func (x *Execution) DmbStRel() rel.Rel {
	return x.PO.Filter(func(i, j int) bool { return x.Events[i].stFences < x.Events[j].stFences })
}

// Sets of events used by the architecture models.
func (x *Execution) IsWriteEv(i int) bool { return x.Events[i].IsWrite }
func (x *Execution) IsReadEv(i int) bool  { return !x.Events[i].IsWrite }
func (x *Execution) IsAcqEv(i int) bool   { return x.Events[i].Acq }
func (x *Execution) IsRelEv(i int) bool   { return x.Events[i].Rel }
func (x *Execution) Any(int) bool         { return true }

// IsWA reports whether event i is an "atomic write" in the x86 sense: a
// write with an rmw-predecessor.
func (x *Execution) IsWA(i int) bool {
	for k := 0; k < x.n(); k++ {
		if x.RMW.Has(k, i) {
			return true
		}
	}
	return false
}

// SCPerLocation checks acyclic(poloc ∪ rf ∪ fr ∪ co), the per-location
// coherence condition shared by both hardware models.
func (x *Execution) SCPerLocation() bool {
	return x.POLoc().Union(x.RF, x.FR(), x.CO).Acyclic()
}

// RMWAtomic checks rmw ∩ (fre; coe) = ∅: no external write intervenes
// between the read and write halves of an RMW.
func (x *Execution) RMWAtomic() bool {
	fre := x.External(x.FR())
	coe := x.External(x.CO)
	return x.RMW.Intersect(fre.Compose(coe)).Empty()
}

// FinalMem returns the co-maximal write value per location.
func (x *Execution) FinalMem() map[prog.Loc]prog.Val {
	out := map[prog.Loc]prog.Val{}
	for l := range x.Prog.Locs {
		best := -1
		for i, e := range x.Events {
			if e.Loc != l || !e.IsWrite {
				continue
			}
			if best == -1 || x.CO.Has(best, i) {
				best = i
			}
		}
		if best >= 0 {
			out[l] = x.Events[best].Val
		}
	}
	return out
}

// Describe renders the execution for diagnostics.
func (x *Execution) Describe() string {
	var b []byte
	for i, e := range x.Events {
		b = append(b, fmt.Sprintf("%2d: %s\n", i, e)...)
	}
	b = append(b, fmt.Sprintf("po=%v\nrf=%v\nco=%v\nrmw=%v\n", x.PO, x.RF, x.CO, x.RMW)...)
	return string(b)
}
