package modeltest

// The soundness and report-identity obligations of the static may-race
// analysis (internal/staticrace), proven differentially:
//
//   - Soundness: on the full litmus corpus plus 220 random progsynth
//     programs, every race the exhaustive dynamic oracle observes in any
//     interleaving is covered by the static may-race set — at location
//     level and at thread/kind pair level. Precision (static may-race
//     vs dynamically racy location counts) is logged, not asserted: a
//     loss of precision is a regression to review (the staticrace golden
//     pins it per-program), a loss of soundness is a bug.
//
//   - Prefilter identity: monitoring a schedgen stream with the
//     statically-certified locations filtered out of the checker
//     produces byte-identical reports and RAStats to the unfiltered
//     run — sequentially and through the pipeline at every shard count —
//     and a filtered sequential monitor and a filtered pipeline snapshot
//     byte-identically at the same stream position.

import (
	"bytes"
	"testing"

	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
	"localdrf/internal/staticrace"
)

// staticOracleCap bounds the dynamic oracle per program. Capping only
// shrinks the dynamic race set — the safe direction for a soundness
// check (race.FindRaces would error past its budget instead).
const staticOracleCap = 1500

// dynRaceSet is the deduplicated union of race.Races over up to cap
// traces of p.
func dynRaceSet(t *testing.T, p *prog.Program, cap int) []race.Report {
	t.Helper()
	set := map[race.Report]bool{}
	count := 0
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		count++
		for _, r := range race.Races(tr) {
			set[r] = true
		}
		return count < cap
	})
	if err != nil {
		t.Fatalf("%s: explore: %v", p.Name, err)
	}
	out := make([]race.Report, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	race.SortReports(out)
	return out
}

// staticPairCovers reports whether the unordered static pair matches the
// dynamic report's thread set and access kinds.
func staticPairCovers(pr staticrace.Pair, d race.Report) bool {
	if pr.A.Thread == d.ThreadI && pr.B.Thread == d.ThreadJ &&
		pr.A.Write == d.WriteI && pr.B.Write == d.WriteJ {
		return true
	}
	return pr.A.Thread == d.ThreadJ && pr.B.Thread == d.ThreadI &&
		pr.A.Write == d.WriteJ && pr.B.Write == d.WriteI
}

// checkStaticSound asserts static ⊇ dynamic for one program and returns
// (dynamically racy, statically may-race) location counts.
func checkStaticSound(t *testing.T, p *prog.Program) (int, int) {
	t.Helper()
	rep := staticrace.Analyze(p)
	mayRace := map[prog.Loc]bool{}
	for _, l := range rep.MayRace {
		mayRace[l] = true
	}
	dynLocs := map[prog.Loc]bool{}
	for _, d := range dynRaceSet(t, p, staticOracleCap) {
		dynLocs[d.Loc] = true
		if !mayRace[d.Loc] {
			t.Errorf("%s: SOUNDNESS MISS: dynamic race %v on statically certified location\nprogram:\n%s",
				p.Name, d, p)
			continue
		}
		covered := false
		for _, pr := range rep.Pairs {
			if !pr.Certified && pr.A.Loc == d.Loc && staticPairCovers(pr, d) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("%s: SOUNDNESS MISS: dynamic race %v has no uncertified static pair", p.Name, d)
		}
	}
	return len(dynLocs), len(rep.MayRace)
}

// TestStaticSoundnessCorpus is the headline proof obligation: the static
// may-race set over-approximates the exhaustive dynamic oracle on every
// litmus program and 220 random progsynth programs.
func TestStaticSoundnessCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive soundness corpus skipped in -short mode")
	}
	programs := 0
	dyn, static := 0, 0
	run := func(p *prog.Program) {
		d, s := checkStaticSound(t, p)
		dyn += d
		static += s
		programs++
	}
	for _, lt := range litmus.Suite() {
		run(lt.Prog)
	}
	for seed := int64(0); seed < 160; seed++ {
		run(progsynth.Random(seed, progsynth.Config{}))
	}
	deep := deepConfig()
	for seed := int64(5000); seed < 5060; seed++ {
		run(progsynth.Random(seed, deep))
	}
	if static < dyn {
		t.Fatalf("static may-race locations (%d) < dynamically racy locations (%d)", static, dyn)
	}
	t.Logf("soundness corpus: %d programs, %d dynamically racy / %d static may-race locations",
		programs, dyn, static)
}

// prefilterConfig is the parity workload: shared contended locations
// plus per-thread private pools, so the certificate has real traffic to
// discharge (the privates certify single-thread) while the racy shared
// locations exercise the unfiltered half of the checker.
func prefilterConfig() progsynth.ScaledConfig {
	return progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
		PrivateLocs: 2, PrivatePct: 60,
	}
}

// TestStaticPrefilterParity: for every stream in a seeds × policies × GC
// grid, the filtered monitor's reports, RAStats and event count equal
// the unfiltered monitor's, sequentially and through the pipeline at
// shards {1,2,4}; and the filtered sequential monitor and filtered
// pipeline produce byte-identical snapshots mid-stream.
func TestStaticPrefilterParity(t *testing.T) {
	if testing.Short() {
		t.Skip("prefilter parity matrix skipped in -short mode")
	}
	cfg := prefilterConfig()
	streams := 0
	for seed := int64(0); seed < 12; seed++ {
		p := progsynth.Scaled(seed, cfg)
		rep := staticrace.Analyze(p)
		tb := monitor.NewTable(p)
		mask := monitor.StaticFilter(tb.Decls(), rep.RaceFree)
		if mask == nil {
			t.Fatalf("seed %d: certificate filtered nothing", seed)
		}
		filtered := 0
		for _, skip := range mask {
			if skip {
				filtered++
			}
		}
		if got, want := filtered, cfg.Threads*cfg.PrivateLocs; got < want {
			t.Fatalf("seed %d: filter covers %d locations, want ≥ %d (the private pools)", seed, got, want)
		}
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed*31 + 5, MaxEvents: 2_000, StaleReadPct: 20,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			streams++
			for _, g := range []gcMode{{name: "gc64", interval: 64}, {name: "default"}} {
				want := runSeq(tb.Threads(), tb.Decls(), events, g)

				fm := monitor.New(tb.Threads(), tb.Decls())
				g.applyMonitor(fm)
				fm.SetStaticFilter(mask)
				fm.StepBatch(events)
				got := outcome{reports: fm.Reports(), stats: fm.RAStats(), events: fm.Events()}
				if !got.equal(want) {
					t.Fatalf("seed %d %v %s: filtered sequential run diverged\ngot  %+v\nwant %+v",
						seed, pol, g.name, got, want)
				}

				for _, shards := range []int{1, 2, 4} {
					pcfg := g.pipelineConfig(shards)
					pcfg.StaticFilter = mask
					pl := monitor.NewPipeline(tb.Threads(), tb.Decls(), pcfg)
					pl.StepBatch(events)
					got := outcome{reports: pl.Finish(), stats: pl.RAStats(), events: pl.Events()}
					if !got.equal(want) {
						t.Fatalf("seed %d %v %s shards=%d: filtered pipeline diverged\ngot  %+v\nwant %+v",
							seed, pol, g.name, shards, got, want)
					}
				}

				// Snapshot byte parity at mid-stream: filtered sequential vs
				// filtered pipeline. The filter keeps skipped locations' checker
				// state empty identically on both paths.
				k := len(events) / 2
				sm := monitor.New(tb.Threads(), tb.Decls())
				g.applyMonitor(sm)
				sm.SetStaticFilter(mask)
				sm.StepBatch(events[:k])
				var seqBuf bytes.Buffer
				if err := sm.Snapshot(&seqBuf); err != nil {
					t.Fatal(err)
				}
				pcfg := g.pipelineConfig(2)
				pcfg.StaticFilter = mask
				pl := monitor.NewPipeline(tb.Threads(), tb.Decls(), pcfg)
				pl.StepBatch(events[:k])
				var pipeBuf bytes.Buffer
				if err := pl.Snapshot(&pipeBuf); err != nil {
					t.Fatal(err)
				}
				pl.Abort()
				if !bytes.Equal(seqBuf.Bytes(), pipeBuf.Bytes()) {
					t.Fatalf("seed %d %v %s: filtered snapshot bytes diverge between monitor and pipeline",
						seed, pol, g.name)
				}
			}
		}
	}
	t.Logf("prefilter parity: %d streams × 2 GC modes × {seq,1,2,4 shards} identical", streams)
}
