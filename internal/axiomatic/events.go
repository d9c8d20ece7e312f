// Package axiomatic implements the axiomatic semantics of §6 of the
// paper and the alternative characterisations of §7 (thms. 17 and 18).
//
// Program behaviour is a set of events E = (k, ℓ, ϕ) where k is (i, n) —
// the n-th event of thread i — or IWℓ, the initial write to ℓ. A candidate
// execution equips an event graph with po (program order), rf (reads-from)
// and co (coherence); a consistent execution additionally satisfies
// Causality (no cycles in hb ∪ rf ∪ frat), CoWW and CoWR.
//
// Enumeration is herd-style (Alglave, Maranget and Tautschnig, "Herding
// Cats", TOPLAS 2014): each thread is executed locally with read values
// drawn from a fixpoint value domain (ValueDomain; it resolves control
// flow and computed store values), then Candidates enumerates rf and co
// over the resulting event graph and the axioms are checked. Package hw
// runs the same search for the §7 hardware models. The visit order is a
// contract, since it decides which counterexample is reported first. The
// product of local executions varies slowest, thread 0's choice fastest
// within it. Within one event graph, rf varies slower than co; within rf
// the first read's write varies fastest, and within co the first
// location's permutation does, locations in the order of their initial
// writes. TestCandidatesPinned in package modeltest pins that order.
// Theorems 15/16 (the operational and axiomatic models define the same
// behaviours) are validated empirically by comparing outcome sets with
// package explore.
package axiomatic

import (
	"fmt"

	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// Event is one node of the event graph.
type Event struct {
	// Thread is the executing thread index, or -1 for initial writes.
	Thread int
	// Seq is the event's position n in program order within its thread
	// (meaningless for initial writes).
	Seq int
	// Loc, IsWrite and Val describe the action ℓ:ϕ.
	Loc     prog.Loc
	IsWrite bool
	Val     prog.Val
	// Atomic records whether Loc is a (sequentially consistent) atomic
	// location; RA records whether it is release-acquire (§10
	// extension). At most one of the two is set.
	Atomic bool
	RA     bool
}

// IsInit reports whether the event is an initial write IWℓ.
func (e Event) IsInit() bool { return e.Thread < 0 }

func (e Event) String() string {
	k := "R"
	if e.IsWrite {
		k = "W"
	}
	if e.IsInit() {
		return fmt.Sprintf("IW%s=%d", e.Loc, e.Val)
	}
	return fmt.Sprintf("%s%s=%d@%d.%d", k, e.Loc, e.Val, e.Thread, e.Seq)
}

// Execution is a candidate execution: the event graph with po, rf and co,
// plus the final register files produced by the local executions (used to
// extract observable outcomes).
type Execution struct {
	Prog   *prog.Program
	Events []Event
	PO     rel.Rel
	RF     rel.Rel
	CO     rel.Rel
	Regs   []map[prog.Reg]prog.Val
}

// n returns the number of events.
func (x *Execution) n() int { return len(x.Events) }

// FR returns the from-reads relation fr = rf⁻¹ ; co (E1 fr E2 when E1
// reads a value later overwritten by E2).
func (x *Execution) FR() rel.Rel {
	return x.RF.Inverse().Compose(x.CO)
}

// restrictAtomic keeps only pairs whose (shared) location is atomic. The
// relations this is applied to (co, rf, fr) only relate same-location
// events.
func (x *Execution) restrictAtomic(r rel.Rel) rel.Rel {
	return r.Filter(func(i, j int) bool { return x.Events[i].Atomic })
}

// HBInit relates every initial write to every non-initial event.
func (x *Execution) HBInit() rel.Rel {
	r := rel.New(x.n())
	for i, e := range x.Events {
		if !e.IsInit() {
			continue
		}
		for j, f := range x.Events {
			if !f.IsInit() {
				r.Set(i, j)
			}
		}
	}
	return r
}

// restrictRA keeps only pairs on release-acquire locations.
func (x *Execution) restrictRA(r rel.Rel) rel.Rel {
	return r.Filter(func(i, j int) bool { return x.Events[i].RA })
}

// HB computes happens-before per §6: the smallest transitive relation
// containing initial-write edges, po, and same-atomic-location co and rf
// edges. For the §10 release-acquire extension, an RA location
// contributes only its rf edges (a release write synchronises exactly
// with the acquire reads that read from it), matching the operational
// frontier flow of ra.go.
func (x *Execution) HB() rel.Rel {
	base := x.HBInit().Union(x.PO)
	atomicCommunication := x.restrictAtomic(x.CO).Union(x.restrictAtomic(x.RF))
	raCommunication := x.restrictRA(x.RF)
	return base.Union(atomicCommunication, raCommunication).TransitiveClosure()
}

// Consistency axioms of §6. CheckConsistent returns nil for a consistent
// execution and a descriptive error otherwise.
func (x *Execution) CheckConsistent() error {
	hb := x.HB()
	fr := x.FR()
	frat := x.restrictAtomic(fr)
	// Causality: no cycles in hb ∪ rf ∪ frat.
	if !hb.Union(x.RF, frat).Acyclic() {
		return fmt.Errorf("axiomatic: causality violated (cycle in hb ∪ rf ∪ frat)")
	}
	// CoWW: no E1 hb E2 with E2 co E1.
	if !hb.Compose(x.CO).Irreflexive() {
		return fmt.Errorf("axiomatic: CoWW violated")
	}
	// CoWR: no E1 hb E2 with E2 fr E1.
	if !hb.Compose(fr).Irreflexive() {
		return fmt.Errorf("axiomatic: CoWR violated")
	}
	return nil
}

// Consistent reports whether the execution satisfies the §6 axioms.
func (x *Execution) Consistent() bool { return x.CheckConsistent() == nil }

// ---- §7 subrelations of program order and the recharacterisations ----

func (x *Execution) isAtomicEv(i int) bool { return x.Events[i].Atomic }
func (x *Execution) isWriteEv(i int) bool  { return x.Events[i].IsWrite }
func (x *Execution) isReadEv(i int) bool   { return !x.Events[i].IsWrite }
func (x *Execution) any(int) bool          { return true }

// POatL is poat−: pairs whose first event is an atomic read or write.
func (x *Execution) POatL() rel.Rel { return x.PO.Restrict(x.isAtomicEv, x.any) }

// POatR is po−at: pairs whose second event is an atomic write.
func (x *Execution) POatR() rel.Rel {
	return x.PO.Restrict(x.any, func(j int) bool { return x.isAtomicEv(j) && x.isWriteEv(j) })
}

// POatat is poat−at: atomic first event, atomic-write second event.
func (x *Execution) POatat() rel.Rel {
	return x.PO.Restrict(x.isAtomicEv, func(j int) bool { return x.isAtomicEv(j) && x.isWriteEv(j) })
}

// PORW is poRW: read before write (any locations).
func (x *Execution) PORW() rel.Rel { return x.PO.Restrict(x.isReadEv, x.isWriteEv) }

// POcon is pocon: same location, at least one write.
func (x *Execution) POcon() rel.Rel {
	return x.PO.Filter(func(i, j int) bool {
		return x.Events[i].Loc == x.Events[j].Loc && (x.isWriteEv(i) || x.isWriteEv(j))
	})
}

// external returns r \ po (the rfe/coe/fre split of §7).
func (x *Execution) external(r rel.Rel) rel.Rel { return r.Minus(x.PO) }

// HBCom computes
//
//	hbcom = po−at?; ((coeat ∪ rfeat); poat−at?)*; (coeat ∪ rfeat); poat−?
//
// The paper's display (§7) writes the po segments without the reflexive
// "?", but its own appendix proof of thm. 17 requires rfeat ∪ coeat ⊆
// hbcom (step (i)) and closes hbcom;hbcom ⊆ hbcom (step (ii)) in ways
// that only hold with the reflexive closures — the R? notation is
// introduced immediately before the theorem for exactly this use.
func (x *Execution) HBCom() rel.Rel {
	coeat := x.external(x.restrictAtomic(x.CO))
	rfeat := x.external(x.restrictAtomic(x.RF))
	comm := coeat.Union(rfeat)
	step := comm.Compose(x.POatat().ReflexiveClosure())
	starred := step.TransitiveClosure().ReflexiveClosure()
	return x.POatR().ReflexiveClosure().
		Compose(starred).
		Compose(comm).
		Compose(x.POatL().ReflexiveClosure())
}

// HBAlt is the thm. 17 characterisation hbinit ∪ hbcom ∪ po.
func (x *Execution) HBAlt() rel.Rel {
	return x.HBInit().Union(x.HBCom(), x.PO)
}

// hasRA reports whether the execution touches release-acquire locations;
// the §7 recharacterisations (thms. 17/18) are statements about the base
// model and are not checked on extended executions.
func (x *Execution) hasRA() bool {
	for _, e := range x.Events {
		if e.RA {
			return true
		}
	}
	return false
}

// CheckTheorem17 verifies hb = hbinit ∪ hbcom ∪ po on this candidate
// execution. Executions using the RA extension are outside the
// theorem's scope and pass vacuously.
func (x *Execution) CheckTheorem17() error {
	if x.hasRA() {
		return nil
	}
	if !x.HB().Equal(x.HBAlt()) {
		return fmt.Errorf("axiomatic: thm 17 failed: hb != hbinit ∪ hbcom ∪ po\nhb   = %v\nalt  = %v", x.HB(), x.HBAlt())
	}
	return nil
}

// ConsistentAlt is the thm. 18 characterisation: Causality as acyclicity
// of hbcom ∪ poat− ∪ po−at ∪ poRW ∪ rfe ∪ freat, and Coherence as
// irreflexivity of (hbinit ∪ hbcom ∪ pocon); (fr ∪ co).
func (x *Execution) ConsistentAlt() bool {
	hbcom := x.HBCom()
	rfe := x.external(x.RF)
	freat := x.external(x.restrictAtomic(x.FR()))
	causality := hbcom.Union(x.POatL(), x.POatR(), x.PORW(), rfe, freat)
	if !causality.Acyclic() {
		return false
	}
	coherence := x.HBInit().Union(hbcom, x.POcon()).Compose(x.FR().Union(x.CO))
	return coherence.Irreflexive()
}

// CheckTheorem18 verifies that the §6 axioms and the thm. 18 conditions
// agree on this candidate execution. Executions using the RA extension
// are outside the theorem's scope and pass vacuously.
func (x *Execution) CheckTheorem18() error {
	if x.hasRA() {
		return nil
	}
	if x.Consistent() != x.ConsistentAlt() {
		return fmt.Errorf("axiomatic: thm 18 failed: Consistent=%v ConsistentAlt=%v", x.Consistent(), x.ConsistentAlt())
	}
	return nil
}

// FinalMem returns the co-maximal write's value per location.
func (x *Execution) FinalMem() map[prog.Loc]prog.Val {
	out := map[prog.Loc]prog.Val{}
	for _, l := range x.Prog.SortedLocs() {
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
	b = append(b, fmt.Sprintf("po=%v\nrf=%v\nco=%v\n", x.PO, x.RF, x.CO)...)
	return string(b)
}
