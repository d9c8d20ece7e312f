// Command experiments regenerates every table and figure of the paper's
// evaluation, printing measured results next to the paper's numbers.
//
// Usage:
//
//	experiments [-run all|examples|equivalence|drf|opt|x86|arm|fig5a|fig5b|fig5c|padding]
//
// The semantic experiments (examples, equivalence, x86, arm, opt, drf)
// are exact model-checking results and must reproduce the paper's
// verdicts verbatim; any mismatch exits 1. The fig5* and padding
// experiments run the pipeline-simulator substitute for the paper's
// hardware measurements (the substitution rationale is in the package
// doc of internal/sim); their numbers are expected to match in shape,
// not in absolute value.
//
// Performance is measured elsewhere: end to end by cmd/ldbench, and per
// layer by the testing.B benchmarks of each package.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"localdrf"
	"localdrf/internal/engine"
)

func main() {
	run := flag.String("run", "all", "which experiment to regenerate")
	flag.Parse()

	experiments := []struct {
		name string
		fn   func() error
	}{
		{"examples", examples},
		{"equivalence", equivalence},
		{"drf", drf},
		{"opt", optimiser},
		{"x86", x86Soundness},
		{"arm", armSoundness},
		{"fig5a", fig5a},
		{"fig5b", fig5b},
		{"fig5c", fig5c},
		{"padding", padding},
	}
	any := false
	for _, e := range experiments {
		if *run != "all" && *run != e.name {
			continue
		}
		any = true
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

// examples regenerates §2/§5: the three example fragments behave
// sequentially here, and the C++/Java miscompilations reproduce the bad
// outcomes.
func examples() error {
	names := []string{
		"Example1", "Example1+miscompiled",
		"Example2", "Example2+miscompiled",
		"Example3", "S9.2",
	}
	for _, n := range names {
		tc, ok := localdrf.LitmusTestByName(n)
		if !ok {
			return fmt.Errorf("missing litmus test %s", n)
		}
		if err := localdrf.VerifyLitmus(tc); err != nil {
			return err
		}
		fmt.Printf("%-22s %s\n", tc.Name, tc.Description)
		set, err := localdrf.Outcomes(tc.Prog)
		if err != nil {
			return err
		}
		for _, c := range tc.Checks {
			verdict := "forbidden"
			if set.Exists(c.Pred) {
				verdict = "allowed"
			}
			note := ""
			if c.Note != "" {
				note = " — " + c.Note
			}
			fmt.Printf("    %-24s %-9s (paper: %v)%s\n", c.Name, verdict, c.Want, note)
		}
	}
	return nil
}

// equivalence regenerates the thm. 15/16 check on the whole litmus
// suite: operational and axiomatic outcome sets coincide. The suite is
// swept concurrently on the engine's task runner; the report is printed
// in catalogue order.
func equivalence() error {
	suite := localdrf.LitmusSuite()
	lines := make([]string, len(suite))
	err := engine.ForEach(0, len(suite), func(_, i int) error {
		tc := suite[i]
		// Inner exploration stays single-threaded: the corpus fan-out
		// already saturates the cores.
		op, err := localdrf.OutcomesOpt(tc.Prog, localdrf.ExploreOptions{Parallelism: 1})
		if err != nil {
			return err
		}
		ax, err := localdrf.OutcomesAxiomatic(tc.Prog)
		if err != nil {
			return err
		}
		status := "EQUAL"
		if !op.Equal(ax) {
			status = "DIFFER"
		}
		lines[i] = fmt.Sprintf("%-22s operational=%2d axiomatic=%2d  %s",
			tc.Name, op.Len(), ax.Len(), status)
		if status == "DIFFER" {
			return fmt.Errorf("%s: models disagree", tc.Name)
		}
		return nil
	})
	for _, l := range lines {
		if l != "" {
			fmt.Println(l)
		}
	}
	if err != nil {
		return err
	}
	fmt.Println("thm 15/16: operational ≡ axiomatic on the full suite")
	return nil
}

// drf regenerates the §4/§5 story: global DRF on race-free programs,
// race detection on racy ones, local DRF from the examples' states.
func drf() error {
	guarded := localdrf.NewProgram("MP-guarded").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").Load("r0", "F").JmpZ("r0", "skip").Load("r1", "x").Label("skip").Done().
		MustBuild()
	if err := localdrf.CheckGlobalDRF(guarded); err != nil {
		return err
	}
	fmt.Println("thm 14 (global DRF): MP-guarded is race-free ⇒ all behaviours SC   OK")

	for _, n := range []string{"Example1", "Example2", "MP+na"} {
		tc, _ := localdrf.LitmusTestByName(n)
		races, err := localdrf.FindRaces(tc.Prog, false)
		if err != nil {
			return err
		}
		fmt.Printf("races in %-12s:", n)
		for _, r := range races {
			fmt.Printf(" [%s]", r)
		}
		fmt.Println()
	}

	cases := []struct {
		test string
		L    []localdrf.Loc
	}{
		{"Example1", []localdrf.Loc{"a", "b"}},
		{"Example2", []localdrf.Loc{"a"}},
		{"Example3", []localdrf.Loc{"cx", "g"}},
	}
	for _, c := range cases {
		tc, _ := localdrf.LitmusTestByName(c.test)
		L := localdrf.NewLocSet(c.L...)
		m := localdrf.NewMachine(tc.Prog)
		stable, err := localdrf.LStable(tc.Prog, m, L)
		if err != nil {
			return err
		}
		if err := localdrf.CheckLocalDRFFrom(m, L); err != nil {
			return err
		}
		fmt.Printf("thm 13 (local DRF) from M0 of %-10s with L=%v: stable=%v, theorem holds\n",
			c.test, c.L, stable)
	}
	return nil
}

// optimiser regenerates §7.1: the valid derivations succeed, the invalid
// one is rejected with the violated constraint.
func optimiser() error {
	p := localdrf.NewProgram("opt").
		Vars("a", "b", "c").
		Thread("P0").
		Load("r1", "a").
		Load("r2", "b").
		Load("r3", "a").
		Done().
		MustBuild()
	f := localdrf.ThreadFragment(p, 0)
	out, steps, err := localdrf.CSE(f, p)
	if err != nil {
		return err
	}
	fmt.Printf("CSE        [%s] ⇒ [%s]  (%d steps)\n", f, out, len(steps))

	p2 := localdrf.NewProgram("dse").
		Vars("a", "b", "c").
		Thread("P0").
		StoreI("a", 1).
		Load("rc", "c").
		StoreR("b", "rc").
		StoreI("a", 2).
		Done().
		MustBuild()
	f2 := localdrf.ThreadFragment(p2, 0)
	out2, _, err := localdrf.DSE(f2, p2)
	if err != nil {
		return err
	}
	fmt.Printf("DSE        [%s] ⇒ [%s]\n", f2, out2)

	p3 := localdrf.NewProgram("cp").
		Vars("a", "b", "c").
		Thread("P0").
		StoreI("a", 1).
		Load("rc", "c").
		StoreR("b", "rc").
		Load("r", "a").
		Done().
		MustBuild()
	f3 := localdrf.ThreadFragment(p3, 0)
	out3, _, err := localdrf.ConstProp(f3, p3)
	if err != nil {
		return err
	}
	fmt.Printf("ConstProp  [%s] ⇒ [%s]\n", f3, out3)

	p4 := localdrf.NewProgram("rse").
		Vars("a", "b", "c").
		Thread("P0").
		Load("r1", "a").
		Load("rc", "c").
		StoreR("b", "rc").
		StoreR("a", "r1").
		Done().
		MustBuild()
	f4 := localdrf.ThreadFragment(p4, 0)
	if _, _, err := localdrf.RedundantStoreElimination(f4, p4); err != nil {
		fmt.Printf("RSE        [%s] rejected: %v\n", f4, err)
	} else {
		return fmt.Errorf("redundant store elimination was not rejected")
	}
	return nil
}

func x86Soundness() error {
	return soundnessTable([]localdrf.Scheme{localdrf.SchemeX86, localdrf.SchemeX86PlainAtomicStore})
}

func armSoundness() error {
	return soundnessTable([]localdrf.Scheme{
		localdrf.SchemeARMBal, localdrf.SchemeARMFbs, localdrf.SchemeARMSra,
		localdrf.SchemeARMNaive, localdrf.SchemeARMNaiveAtomics,
	})
}

// soundnessTable prints, per scheme × litmus test, whether compilation is
// sound. The ablation schemes are *expected* to be unsound on specific
// tests (that is their purpose); sound schemes must never be.
func soundnessTable(schemes []localdrf.Scheme) error {
	soundSchemes := map[localdrf.Scheme]bool{
		localdrf.SchemeX86:    true,
		localdrf.SchemeARMBal: true,
		localdrf.SchemeARMFbs: true,
		localdrf.SchemeARMSra: true,
	}
	for _, s := range schemes {
		fmt.Printf("%s:\n", s)
		for _, tc := range localdrf.LitmusSuite() {
			err := localdrf.CheckCompilation(tc.Prog, s)
			verdict := "sound"
			if err != nil {
				verdict = "UNSOUND: " + err.Error()
			}
			fmt.Printf("    %-22s %s\n", tc.Name, verdict)
			if err != nil && soundSchemes[s] {
				return fmt.Errorf("scheme %s must be sound on %s: %w", s, tc.Name, err)
			}
		}
	}
	return nil
}

// fig5a prints the workload table: benchmark, access rate, class mix.
func fig5a() error {
	fmt.Printf("%-22s %9s   %s\n", "benchmark", "M acc/s", "memory access distribution (reconstructed)")
	for _, b := range localdrf.Benchmarks() {
		fmt.Printf("%-22s %9.2f   %s   fp=%.0f%%\n", b.Name, b.RateM, b.MixString(), 100*b.FPShare)
	}
	return nil
}

func fig5b() error {
	return fig5series(localdrf.ArchThunderX(), map[localdrf.PerfScheme]string{
		localdrf.PerfBAL: "+2.5%", localdrf.PerfFBS: "+0.6%", localdrf.PerfSRA: "+85.3%",
	})
}

func fig5c() error {
	return fig5series(localdrf.ArchPower(), map[localdrf.PerfScheme]string{
		localdrf.PerfBAL: "+2.9%", localdrf.PerfFBS: "+26.0%", localdrf.PerfSRA: "+40.8%",
	})
}

func fig5series(arch localdrf.Arch, paperAvg map[localdrf.PerfScheme]string) error {
	schemes := []localdrf.PerfScheme{localdrf.PerfBAL, localdrf.PerfFBS, localdrf.PerfSRA}
	per := map[localdrf.PerfScheme]map[string]float64{}
	avg := map[localdrf.PerfScheme]float64{}
	for _, s := range schemes {
		per[s], avg[s] = localdrf.SimSuite(arch, s)
	}
	fmt.Printf("%s — simulated time normalised to baseline\n", arch.Name)
	fmt.Printf("%-22s", "benchmark")
	for _, s := range schemes {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	var names []string
	for _, b := range localdrf.Benchmarks() {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-22s", n)
		for _, s := range schemes {
			fmt.Printf(" %8.3f", per[s][n])
		}
		fmt.Println()
	}
	fmt.Printf("%-22s", "AVERAGE (measured)")
	for _, s := range schemes {
		fmt.Printf(" %+7.1f%%", 100*(avg[s]-1))
	}
	fmt.Println()
	fmt.Printf("%-22s", "AVERAGE (paper)")
	for _, s := range schemes {
		fmt.Printf(" %8s", paperAvg[s])
	}
	fmt.Println()
	return nil
}

// padding regenerates the §8.3 control experiment: nop padding alone
// reproduces the BAL/FBS "speedups" on the alignment-sensitive
// benchmarks.
func padding() error {
	arch := localdrf.ArchThunderX()
	for _, name := range []string{"sequence", "menhir-standard"} {
		b, ok := localdrf.BenchmarkByName(name)
		if !ok {
			return fmt.Errorf("missing benchmark %s", name)
		}
		fmt.Printf("%-18s baseline+nop=%.4f  BAL=%.4f  FBS=%.4f\n",
			name,
			localdrf.SimNormalized(b, arch, localdrf.PerfBaselinePadded),
			localdrf.SimNormalized(b, arch, localdrf.PerfBAL),
			localdrf.SimNormalized(b, arch, localdrf.PerfFBS))
	}
	fmt.Println("(values below 1.0 are the i-cache alignment artefact the paper diagnosed)")
	return nil
}
