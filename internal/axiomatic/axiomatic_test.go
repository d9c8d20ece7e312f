package axiomatic

import (
	"testing"

	"localdrf/internal/explore"
	"localdrf/internal/prog"
)

func axOutcomes(t *testing.T, p *prog.Program) *explore.Set {
	t.Helper()
	s, err := Outcomes(p)
	if err != nil {
		t.Fatalf("axiomatic.Outcomes(%s): %v", p.Name, err)
	}
	return s
}

func opOutcomes(t *testing.T, p *prog.Program) *explore.Set {
	t.Helper()
	s, err := explore.Outcomes(p, explore.Options{})
	if err != nil {
		t.Fatalf("explore.Outcomes(%s): %v", p.Name, err)
	}
	return s
}

// The empirical statement of thms. 15/16: the operational and axiomatic
// models produce identical outcome sets.
func assertEquivalent(t *testing.T, p *prog.Program) {
	t.Helper()
	op := opOutcomes(t, p)
	ax := axOutcomes(t, p)
	if !op.Equal(ax) {
		t.Errorf("%s: operational and axiomatic outcomes differ\nop-only: %v\nax-only: %v",
			p.Name, op.Minus(ax), ax.Minus(op))
	}
}

func TestEquivalenceSBna(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("SB-na").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).Load("r0", "y").Done().
		Thread("P1").StoreI("y", 1).Load("r1", "x").Done().
		MustBuild())
}

func TestEquivalenceSBat(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("SB-at").
		Atomics("X", "Y").
		Thread("P0").StoreI("X", 1).Load("r0", "Y").Done().
		Thread("P1").StoreI("Y", 1).Load("r1", "X").Done().
		MustBuild())
}

func TestEquivalenceMP(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("MP").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").Load("r0", "F").Load("r1", "x").Done().
		MustBuild())
}

func TestEquivalenceLB(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("LB").
		Vars("x", "y").
		Thread("P0").Load("r0", "x").StoreI("y", 1).Done().
		Thread("P1").Load("r1", "y").StoreI("x", 1).Done().
		MustBuild())
}

func TestEquivalenceCoRR(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("CoRR").
		Vars("x").
		Thread("P0").StoreI("x", 1).StoreI("x", 2).Done().
		Thread("P1").Load("r0", "x").Load("r1", "x").Done().
		MustBuild())
}

func TestEquivalenceWW(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("2+2W").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).StoreI("y", 2).Done().
		Thread("P1").StoreI("y", 1).StoreI("x", 2).Done().
		MustBuild())
}

func TestEquivalenceStoreRegister(t *testing.T) {
	// Stores of computed values exercise the value-domain fixpoint.
	assertEquivalent(t, prog.NewProgram("computed").
		Vars("x", "y").
		Thread("P0").Load("r0", "x").Add("r1", prog.R("r0"), prog.I(1)).StoreR("y", "r1").Done().
		Thread("P1").StoreI("x", 1).Done().
		MustBuild())
}

func TestEquivalenceBranching(t *testing.T) {
	assertEquivalent(t, prog.NewProgram("branch").
		Vars("x", "f").
		Thread("P0").StoreI("f", 1).Done().
		Thread("P1").
		Load("r0", "f").
		JmpZ("r0", "skip").
		StoreI("x", 7).
		Label("skip").
		Done().
		MustBuild())
}

// Causality forbids rf from a write that is hb-after the read: the §9.2
// C++-comparison shape. If the final value of A is 2 then x must be 0.
func TestSection92AtomicStrength(t *testing.T) {
	p := prog.NewProgram("s9.2").
		Vars("b").
		Atomics("A").
		Thread("P0").Load("x", "b").StoreI("A", 1).Done().
		Thread("P1").StoreI("A", 2).StoreI("b", 1).Done().
		MustBuild()
	ax := axOutcomes(t, p)
	bad := func(o explore.Outcome) bool {
		return o.Mem["A"] == 2 && o.Reg(0, "x") == 1
	}
	if ax.Exists(bad) {
		t.Error("A=2 ∧ x=1 must be forbidden (unlike C++ SC atomics)")
	}
	assertEquivalent(t, p)
}

func TestTheorems17And18OnCandidates(t *testing.T) {
	progs := []*prog.Program{
		prog.NewProgram("MP").
			Vars("x").
			Atomics("F").
			Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
			Thread("P1").Load("r0", "F").Load("r1", "x").Done().
			MustBuild(),
		prog.NewProgram("SB-at").
			Atomics("X", "Y").
			Thread("P0").StoreI("X", 1).Load("r0", "Y").Done().
			Thread("P1").StoreI("Y", 1).Load("r1", "X").Done().
			MustBuild(),
		prog.NewProgram("mix").
			Vars("x").
			Atomics("A").
			Thread("P0").StoreI("x", 1).StoreI("A", 1).Load("r0", "x").Done().
			Thread("P1").Load("r1", "A").StoreI("x", 2).Done().
			MustBuild(),
	}
	for _, p := range progs {
		count := 0
		err := EnumerateCandidates(p, func(x *Execution) bool {
			count++
			if err := x.CheckTheorem17(); err != nil {
				t.Fatalf("%s: %v\n%s", p.Name, err, x.Describe())
			}
			if err := x.CheckTheorem18(); err != nil {
				t.Fatalf("%s: %v\n%s", p.Name, err, x.Describe())
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			t.Fatalf("%s: no candidate executions enumerated", p.Name)
		}
	}
}

func TestConsistencyAxiomsDirectly(t *testing.T) {
	// Hand-built CoWW violation: two writes by one thread, co inverted.
	p := prog.NewProgram("coww").
		Vars("x").
		Thread("P0").StoreI("x", 1).StoreI("x", 2).Done().
		MustBuild()
	sawInverted := false
	err := EnumerateCandidates(p, func(x *Execution) bool {
		// Find the candidate where co orders W2 before W1 against po.
		var w1, w2 int = -1, -1
		for i, e := range x.Events {
			if e.IsWrite && !e.IsInit() {
				if e.Val == 1 {
					w1 = i
				} else {
					w2 = i
				}
			}
		}
		if x.CO.Has(w2, w1) {
			sawInverted = true
			if x.Consistent() {
				t.Error("co against po within a thread must violate CoWW")
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawInverted {
		t.Fatal("enumeration never produced the inverted-co candidate")
	}
}

func TestCoWRViolationFiltered(t *testing.T) {
	// A thread writes then reads the same location with no interference:
	// reading the initial value is a CoWR violation (the read's rf write
	// is co-before a write that happens-before the read).
	p := prog.NewProgram("cowr").
		Vars("x").
		Thread("P0").StoreI("x", 1).Load("r0", "x").Done().
		MustBuild()
	ax := axOutcomes(t, p)
	if ax.Exists(func(o explore.Outcome) bool { return o.Reg(0, "r0") == 0 }) {
		t.Error("reading own overwritten initial value must be inconsistent (CoWR)")
	}
	if !ax.Exists(func(o explore.Outcome) bool { return o.Reg(0, "r0") == 1 }) {
		t.Error("reading own write must be consistent")
	}
}

func TestValueDomainFixpoint(t *testing.T) {
	// r0 reads x (∈ {0,1}), stores r0+1 to y; the domain must grow to
	// include 2 so that the chained read of y can see it.
	p := prog.NewProgram("chain").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").Load("r0", "x").Add("r1", prog.R("r0"), prog.I(1)).StoreR("y", "r1").Done().
		Thread("P2").Load("r2", "y").Done().
		MustBuild()
	dom, err := valueDomain(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []prog.Val{0, 1, 2} {
		if !dom["y"][v] {
			t.Errorf("dom[y] = %v missing %d", dom.Vals("y"), v)
		}
	}
	if dom["x"][2] {
		t.Errorf("dom[x] = %v should not contain 2 (never written to x)", dom.Vals("x"))
	}
	assertEquivalent(t, p)
}

func TestInitialWritesPresent(t *testing.T) {
	p := prog.NewProgram("init").
		Vars("x").
		Thread("P0").Load("r0", "x").Done().
		MustBuild()
	err := Enumerate(p, func(x *Execution) bool {
		inits := 0
		for _, e := range x.Events {
			if e.IsInit() {
				inits++
			}
		}
		if inits != 1 {
			t.Fatalf("initial writes = %d, want 1", inits)
		}
		if x.Regs[0]["r0"] != 0 {
			t.Fatalf("read with only initial write = %d, want 0", x.Regs[0]["r0"])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFinalMemMatchesCO(t *testing.T) {
	p := prog.NewProgram("fm").
		Vars("x").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").StoreI("x", 2).Done().
		MustBuild()
	vals := map[prog.Val]bool{}
	err := Enumerate(p, func(x *Execution) bool {
		vals[x.FinalMem()["x"]] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vals[1] || !vals[2] {
		t.Errorf("final values seen = %v, want both 1 and 2", vals)
	}
	if vals[0] {
		t.Error("initial value cannot be co-final once overwritten")
	}
}
