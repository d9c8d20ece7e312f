package modeltest

// Cross-validation of the predictive predicates (monitor.PredSyncP,
// monitor.PredShort) against two independent oracles:
//
//   - the brute-force feasible-reordering oracle on litmus-sized
//     programs: every sync-preserving report must be a race some
//     actually-explorable trace of the program exhibits (soundness), and
//     must include every plain happens-before race of the observed trace
//     (prediction only adds);
//   - the all-pairs reference decider in internal/predict, differentially
//     on the schedgen corpus, across the pipeline shard matrix and the
//     split/resume checkpoint grid.

import (
	"bytes"
	"testing"

	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/predict"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

// pairKey is a race report with the thread orientation erased: a
// predicted race (u earlier, t later) may be witnessed by a feasible
// trace that runs the pair in the other order, which FindRaces records
// with the threads and access kinds swapped.
type pairKey struct {
	loc    string
	tA, tB int
	wA, wB bool
}

func normPair(r race.Report) pairKey {
	if r.ThreadI <= r.ThreadJ {
		return pairKey{string(r.Loc), r.ThreadI, r.ThreadJ, r.WriteI, r.WriteJ}
	}
	return pairKey{string(r.Loc), r.ThreadJ, r.ThreadI, r.WriteJ, r.WriteI}
}

// TestPredictSoundOnLitmus is the feasibility oracle: on every litmus
// program small enough to enumerate exhaustively, the sync-preserving
// reports of each observed trace lie within the union of the races of
// ALL traces of the program (every prediction is realisable), contain
// the trace's plain HB reports (prediction only adds), and bound the
// distance-k reports (the window only removes candidates).
func TestPredictSoundOnLitmus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short mode")
	}
	const maxTracesExact = 20_000 // full-enumeration budget per program
	const diffTraces = 800        // observed traces checked per program
	programs, traces := 0, 0
	for _, tc := range litmus.Suite() {
		// The oracle needs the COMPLETE feasible race set, so programs
		// whose trace space exceeds the enumeration budget are skipped
		// (a truncated union would flag sound predictions as unsound).
		count := 0
		if err := explore.Traces(tc.Prog, explore.Options{}, 0, func(explore.Trace) bool {
			count++
			return count < maxTracesExact
		}); err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		if count >= maxTracesExact {
			continue
		}
		feasibleReports, err := race.FindRaces(tc.Prog, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		feasible := make(map[pairKey]bool, len(feasibleReports))
		for _, r := range feasibleReports {
			feasible[normPair(r)] = true
		}
		programs++
		tb := monitor.NewTable(tc.Prog)
		var buf []monitor.Event
		n := 0
		err = explore.Traces(tc.Prog, explore.Options{}, 0, func(tr explore.Trace) bool {
			n++
			buf, err = tb.Events(tr, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			hb := race.Races(tr)
			sp := predictReports(tb, predict.Spec{Pred: monitor.PredSyncP}, buf)
			if !subsetReports(hb, sp) {
				t.Fatalf("%s trace %v: syncp lost an HB race\nhb    %v\nsyncp %v",
					tc.Prog.Name, tr, hb, sp)
			}
			for _, r := range sp {
				if !feasible[normPair(r)] {
					t.Fatalf("%s trace %v: syncp report %v matches no feasible trace (feasible %v)",
						tc.Prog.Name, tr, r, feasibleReports)
				}
			}
			for _, k := range []int{1, 4} {
				short := predictReports(tb, predict.Spec{Pred: monitor.PredShort, K: k}, buf)
				if !subsetReports(short, sp) {
					t.Fatalf("%s trace %v: short:%d ⊄ syncp", tc.Prog.Name, tr, k)
				}
			}
			return n < diffTraces
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		traces += n
	}
	if programs == 0 {
		t.Fatal("no litmus program fit the enumeration budget")
	}
	t.Logf("syncp sound (⊆ feasible, ⊇ hb) on %d traces of %d litmus programs", traces, programs)
}

func predictReports(tb *monitor.Table, spec predict.Spec, events []monitor.Event) []race.Report {
	m := monitor.New(tb.Threads(), tb.Decls())
	spec.Apply(m)
	m.StepBatch(events)
	return m.Reports()
}

func subsetReports(a, b []race.Report) bool {
	in := make(map[race.Report]bool, len(b))
	for _, r := range b {
		in[r] = true
	}
	for _, r := range a {
		if !in[r] {
			return false
		}
	}
	return true
}

// TestPredictPipelineParity runs the predictive predicates over the full
// 210-stream schedgen corpus: the streaming monitor must match the
// all-pairs reference decider exactly, and the pipeline must match the
// sequential monitor at every shard count — including the short-race
// window telemetry, whose prune schedule is stream-deterministic.
func TestPredictPipelineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	specs := []predict.Spec{
		{Pred: monitor.PredSyncP},
		{Pred: monitor.PredShort, K: 64},
	}
	streams := 0
	for seed := int64(0); seed < 70; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		var skew float64
		if seed%10 == 0 {
			skew = 1.3
		}
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
				LocSkew: skew, EmitHalts: seed%3 == 0,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			streams++
			for _, spec := range specs {
				want := predict.Races(spec, tb.Threads(), tb.Decls(), events)
				m := monitor.New(tb.Threads(), tb.Decls())
				m.SetGCInterval(16)
				spec.Apply(m)
				m.StepBatch(events)
				if got := m.Reports(); !race.ReportsEqual(got, want) {
					t.Fatalf("seed %d %v %v: monitor diverged from reference\ngot  %v\nwant %v",
						seed, pol, spec, got, want)
				}
				ws := m.WindowStats()
				for _, shards := range []int{1, 2, 4, 8} {
					pl := monitor.NewPipeline(tb.Threads(), tb.Decls(), monitor.PipelineConfig{
						Shards: shards, GCInterval: 16,
						Predicate: spec.Pred, WindowK: spec.K,
					})
					pl.StepBatch(events)
					if got := pl.Finish(); !race.ReportsEqual(got, want) {
						t.Fatalf("seed %d %v %v shards=%d: pipeline diverged\ngot  %v\nwant %v",
							seed, pol, spec, shards, got, want)
					}
					if pws := pl.WindowStats(); pws != ws {
						t.Fatalf("seed %d %v %v shards=%d: pipeline window stats %+v, sequential %+v",
							seed, pol, spec, shards, pws, ws)
					}
				}
			}
		}
	}
	t.Logf("predictive monitor == reference on %d schedgen streams × {syncp, short:64} × shards {1,2,4,8}", streams)
}

// predOutcome extends the checkpoint outcome with the short-race window
// telemetry a split must also preserve exactly.
type predOutcome struct {
	outcome
	win monitor.WindowStats
}

// TestPredictSplitResumeParity extends the checkpoint metamorphic
// harness to the predictive predicates: a snapshot taken under
// -predicate syncp or short:k (the window state rides the snapshot's
// predict part) must resume — sequentially and into pipelines at
// every shard count, which need no predicate configuration because the
// checkpointed predicate is authoritative — to the exact unsplit
// outcome, including window telemetry; and a snapshot of a restored
// monitor stays byte-identical to the unsplit snapshot at the same
// position.
func TestPredictSplitResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	specs := []predict.Spec{
		{Pred: monitor.PredSyncP},
		{Pred: monitor.PredShort, K: 7},
		{Pred: monitor.PredShort, K: 64},
	}
	checks := 0
	for seed := int64(0); seed < 24; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
				EmitHalts: seed%3 == 0,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				for _, g := range gcModes {
					newMon := func() *monitor.Monitor {
						m := monitor.New(tb.Threads(), tb.Decls())
						g.applyMonitor(m)
						spec.Apply(m)
						return m
					}
					m := newMon()
					m.StepBatch(events)
					want := predOutcome{
						outcome: outcome{reports: m.Reports(), stats: m.RAStats(), events: m.Events()},
						win:     m.WindowStats(),
					}
					for _, k := range splitGrid(len(events)) {
						ms := newMon()
						ms.StepBatch(events[:k])
						var snap bytes.Buffer
						if err := ms.Snapshot(&snap); err != nil {
							t.Fatalf("snapshot at %d: %v", k, err)
						}
						mr := restore(t, snap.Bytes())
						if mr.Predicate() != spec.Pred || mr.WindowK() != spec.K {
							t.Fatalf("seed %d %v %v k=%d: restored predicate %v/%d",
								seed, pol, spec, k, mr.Predicate(), mr.WindowK())
						}
						mr.StepBatch(events[k:])
						got := predOutcome{
							outcome: outcome{reports: mr.Reports(), stats: mr.RAStats(), events: mr.Events()},
							win:     mr.WindowStats(),
						}
						if !got.outcome.equal(want.outcome) || got.win != want.win {
							t.Fatalf("seed %d %v %v %s k=%d: sequential resume diverged\ngot  %+v\nwant %+v",
								seed, pol, spec, g.name, k, got, want)
						}
						checks++
						// The second snapshot composes: byte-identical to the
						// unsplit snapshot at the end of the stream.
						var resnap bytes.Buffer
						if err := mr.Snapshot(&resnap); err != nil {
							t.Fatal(err)
						}
						munsplit := newMon()
						munsplit.StepBatch(events)
						var unsplit bytes.Buffer
						if err := munsplit.Snapshot(&unsplit); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(resnap.Bytes(), unsplit.Bytes()) {
							t.Fatalf("seed %d %v %v %s k=%d: resumed snapshot not byte-identical to unsplit (%d vs %d bytes)",
								seed, pol, spec, g.name, k, resnap.Len(), unsplit.Len())
						}
						for _, shards := range []int{1, 2, 4, 8} {
							s, err := monitor.ReadSnapshot(bytes.NewReader(snap.Bytes()))
							if err != nil {
								t.Fatal(err)
							}
							pl := s.Open(monitor.PipelineConfig{Shards: shards})
							pl.StepBatch(events[k:])
							preports := pl.Finish()
							pg := predOutcome{
								outcome: outcome{reports: preports, stats: pl.RAStats(), events: pl.Events()},
								win:     pl.WindowStats(),
							}
							if !pg.outcome.equal(want.outcome) || pg.win != want.win {
								t.Fatalf("seed %d %v %v %s k=%d shards=%d: pipeline resume diverged\ngot  %+v\nwant %+v",
									seed, pol, spec, g.name, k, shards, pg, want)
							}
							checks++
						}
					}
				}
			}
		}
	}
	t.Logf("predictive split-resume parity held (%d split×config checks)", checks)
}

// TestShortWindowBounded is the bounded-memory claim of PredShort at
// test scale: on a long stream the peak live candidate count never
// exceeds k plus one GC interval of slack (entries expire at same-loc
// accesses and GC sweeps), however long the stream runs — and pruning
// actually happens.
func TestShortWindowBounded(t *testing.T) {
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 2_000, OpsPerIter: 5,
		NonAtomic: 12, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 20, MaxConst: 3,
	}
	p := progsynth.Scaled(11, cfg)
	tb := monitor.NewTable(p)
	events, _, err := schedgen.Generate(p, tb, schedgen.Options{
		Policy: schedgen.Bursty, Seed: 7, MaxEvents: 40_000, StaleReadPct: 30,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, gc = 64, 256
	m := monitor.New(tb.Threads(), tb.Decls())
	m.SetGCInterval(gc)
	m.SetPredicate(monitor.PredShort, k)
	m.StepBatch(events)
	ws := m.WindowStats()
	if ws.Peak == 0 || ws.Pruned == 0 {
		t.Fatalf("degenerate fixture: window stats %+v", ws)
	}
	if ws.Peak > k+gc {
		t.Fatalf("window peak %d exceeds k+gc = %d on a %d-event stream", ws.Peak, k+gc, len(events))
	}
	if ws.Live > ws.Peak {
		t.Fatalf("inconsistent window stats %+v", ws)
	}
}
