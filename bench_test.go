package localdrf

// The benchmark harness: one testing.B target per table and figure of
// the paper (plus ablations). Each benchmark regenerates the experiment
// behind its table/figure; cmd/experiments prints the resulting
// paper-vs-measured comparison (-run fig5b, -run fig5c, ...). Run with:
//
//	go test -bench=. -benchmem
//
// The semantic benchmarks (equivalence, soundness) measure the checkers
// themselves; the fig. 5 benchmarks measure the pipeline simulator runs
// that produce the normalised-time series.

import (
	"testing"

	"localdrf/internal/engine"
	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/schedgen"
)

// BenchmarkFig1Operational exercises the operational semantics of fig. 1
// by exhaustively enumerating the behaviours of message passing on the
// parallel exploration engine (compact binary state interning).
func BenchmarkFig1Operational(b *testing.B) {
	p := mpProgram()
	for i := 0; i < b.N; i++ {
		if _, err := Outcomes(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1OperationalSequential is the same enumeration on the
// single-threaded memoised reference path (the seed implementation),
// kept as the baseline the engine is measured against.
func BenchmarkFig1OperationalSequential(b *testing.B) {
	p := mpProgram()
	for i := 0; i < b.N; i++ {
		if _, err := OutcomesSequential(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLitmusSweep enumerates the outcome sets of the entire litmus
// catalogue on the exploration engine, fanning the corpus across the
// engine's task runner — the many-scenario workload cmd/litmus -run all
// and cmd/experiments exercise.
func BenchmarkLitmusSweep(b *testing.B) {
	suite := LitmusSuite()
	for i := 0; i < b.N; i++ {
		err := engine.ForEach(0, len(suite), func(_, j int) error {
			// Single-threaded per test: the corpus fan-out owns the cores.
			_, err := OutcomesOpt(suite[j].Prog, ExploreOptions{Parallelism: 1})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLitmusSweepSequential is the corpus sweep on the sequential
// reference path, one test at a time.
func BenchmarkLitmusSweepSequential(b *testing.B) {
	suite := LitmusSuite()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if _, err := OutcomesSequential(tc.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamingMonitor measures the full racemon pipeline at the
// million-event scale: generate a bursty schedule of a scaled random
// program, then monitor it online — the workload the exhaustive
// checkers cannot reach (generation + monitoring end to end; the
// per-layer benches live in internal/monitor and internal/schedgen).
func BenchmarkStreamingMonitor(b *testing.B) {
	const nevents = 1_000_000
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(nevents)
	p := progsynth.Scaled(1, cfg)
	tb := monitor.NewTable(p)
	mon := tb.NewMonitor()
	var stream []monitor.Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		stream, _, err = schedgen.Generate(p, tb, schedgen.Options{
			Policy: schedgen.Bursty, Seed: 1, MaxEvents: nevents, StaleReadPct: 10,
		}, stream[:0])
		if err != nil {
			b.Fatal(err)
		}
		mon.Reset()
		for _, e := range stream {
			mon.Step(e)
		}
	}
}

// BenchmarkFig2Axiomatic exercises the event-graph generation and
// consistency axioms of §6 on the same program.
func BenchmarkFig2Axiomatic(b *testing.B) {
	p := mpProgram()
	for i := 0; i < b.N; i++ {
		if _, err := OutcomesAxiomatic(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorems15And16Equivalence measures the full empirical
// equivalence check between the two semantics.
func BenchmarkTheorems15And16Equivalence(b *testing.B) {
	p := mpProgram()
	for i := 0; i < b.N; i++ {
		op, err := Outcomes(p)
		if err != nil {
			b.Fatal(err)
		}
		ax, err := OutcomesAxiomatic(p)
		if err != nil {
			b.Fatal(err)
		}
		if !op.Equal(ax) {
			b.Fatal("models diverged")
		}
	}
}

// BenchmarkTheorem13LocalDRF measures the local-DRF theorem checker on
// Example 1's program (race on c, L = {a, b}).
func BenchmarkTheorem13LocalDRF(b *testing.B) {
	tc, ok := LitmusTestByName("Example1")
	if !ok {
		b.Fatal("Example1 missing")
	}
	L := NewLocSet("a", "b")
	for i := 0; i < b.N; i++ {
		if err := CheckLocalDRFFrom(NewMachine(tc.Prog), L); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem14GlobalDRF measures the derived global-DRF check on a
// properly synchronised program.
func BenchmarkTheorem14GlobalDRF(b *testing.B) {
	p := NewProgram("MP-guarded").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").
		Load("r0", "F").
		JmpZ("r0", "skip").
		Load("r1", "x").
		Label("skip").
		Done().
		MustBuild()
	for i := 0; i < b.N; i++ {
		if err := CheckGlobalDRF(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExamples123 verifies all of §2's example verdicts (the
// space/time bounding results of table-less §2).
func BenchmarkExamples123(b *testing.B) {
	names := []string{"Example1", "Example2", "Example3"}
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			tc, _ := LitmusTestByName(n)
			if err := VerifyLitmus(tc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1X86 regenerates the table-1 soundness experiment:
// compile the litmus suite to x86-TSO and check hw ⊆ sw (thm. 19).
func BenchmarkTable1X86(b *testing.B) {
	suite := LitmusSuite()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if err := CheckCompilation(tc.Prog, SchemeX86); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2aARMBal regenerates the table-2a soundness experiment
// (thm. 20, branch-after-load).
func BenchmarkTable2aARMBal(b *testing.B) {
	benchARMScheme(b, SchemeARMBal)
}

// BenchmarkTable2bARMFbs regenerates the table-2b soundness experiment
// (thm. 20, fence-before-store).
func BenchmarkTable2bARMFbs(b *testing.B) {
	benchARMScheme(b, SchemeARMFbs)
}

func benchARMScheme(b *testing.B, s Scheme) {
	suite := LitmusSuite()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if err := CheckCompilation(tc.Prog, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationARMNaive measures the detection of the naive scheme's
// load-buffering leak (the §9.1 counterexample).
func BenchmarkAblationARMNaive(b *testing.B) {
	tc, _ := LitmusTestByName("LB")
	for i := 0; i < b.N; i++ {
		if err := CheckCompilation(tc.Prog, SchemeARMNaive); err == nil {
			b.Fatal("naive scheme unexpectedly sound")
		}
	}
}

// BenchmarkSection71Optimiser measures the optimisation derivations of
// §7.1 (CSE, DSE, const-prop) plus the RSE rejection.
func BenchmarkSection71Optimiser(b *testing.B) {
	p := NewProgram("opt").
		Vars("a", "b", "c").
		Thread("P0").
		StoreI("a", 1).
		Load("rc", "c").
		StoreR("b", "rc").
		StoreI("a", 2).
		Load("r", "a").
		Load("rc2", "c").
		Done().
		MustBuild()
	f := ThreadFragment(p, 0)
	for i := 0; i < b.N; i++ {
		if _, _, err := CSE(f, p); err != nil {
			b.Fatal(err)
		}
		if _, _, err := DSE(f, p); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ConstProp(f, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aWorkloads regenerates the fig. 5a access-distribution
// table (workload suite definitions and body synthesis).
func BenchmarkFig5aWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range Benchmarks() {
			if len(w.Body()) == 0 {
				b.Fatal("empty body")
			}
		}
	}
}

// BenchmarkFig5bAArch64 regenerates one series of fig. 5b: simulated
// normalised time on the ThunderX profile, per scheme, on a
// representative benchmark (minilight: FP-heavy, high access rate).
func BenchmarkFig5bAArch64(b *testing.B) {
	w, _ := BenchmarkByName("minilight")
	arch := ArchThunderX()
	for _, s := range []PerfScheme{PerfBAL, PerfFBS, PerfSRA} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := SimNormalized(w, arch, s); n < 0.5 {
					b.Fatal("implausible normalised time")
				}
			}
		})
	}
}

// BenchmarkFig5cPower regenerates one series of fig. 5c on the POWER
// profile (kb: symbolic, integer-only).
func BenchmarkFig5cPower(b *testing.B) {
	w, _ := BenchmarkByName("kb")
	arch := ArchPower()
	for _, s := range []PerfScheme{PerfBAL, PerfFBS, PerfSRA} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := SimNormalized(w, arch, s); n < 0.5 {
					b.Fatal("implausible normalised time")
				}
			}
		})
	}
}

// BenchmarkSection83Padding regenerates the §8.3 nop-padding control
// experiment on the alignment-sensitive benchmark.
func BenchmarkSection83Padding(b *testing.B) {
	w, _ := BenchmarkByName("sequence")
	arch := ArchThunderX()
	for i := 0; i < b.N; i++ {
		if n := SimNormalized(w, arch, PerfBaselinePadded); n >= 1.0 {
			b.Fatal("padding should win on sequence")
		}
	}
}
