package modeltest

// The metamorphic split-resume harness: the headline proof of the
// checkpoint subsystem. For every schedgen stream and every split point
// k in a grid, running the monitor to k, snapshotting, restoring and
// finishing the stream must be observationally IDENTICAL to the run
// that never stopped — same reports, same RA retention statistics, same
// event count — across the full {shards} × {GC mode} matrix, including
// a double split (a snapshot of a restored monitor), cross-config
// resume (checkpoint under one GC regime, resume under another), and
// cross-mode resume (sequential checkpoint resumed sharded and vice
// versa). This is the strongest test of the bounded-state invariants:
// the snapshot serialises exactly the live state, so if the windowed GC
// or epoch compression ever dropped state that still mattered, some
// split point would expose it as a report or stats divergence.

import (
	"bytes"
	"testing"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

// gcMode is one GC configuration applied uniformly to sequential
// monitors and pipeline front-ends.
type gcMode struct {
	name     string
	interval uint64 // fixed interval when > 0, else the default
}

var gcModes = []gcMode{
	{name: "gc16", interval: 16},
	{name: "default"},
}

func (g gcMode) applyMonitor(m *monitor.Monitor) {
	if g.interval > 0 {
		m.SetGCInterval(g.interval)
	}
}

func (g gcMode) pipelineConfig(shards int) monitor.PipelineConfig {
	return monitor.PipelineConfig{Shards: shards, GCInterval: g.interval}
}

// stepAll drains tr into m with the NextBatch → StepBatch loop the
// drivers run.
func stepAll(tr *monitor.TraceReader, m *monitor.Monitor) error {
	var buf []monitor.Event
	for {
		batch, ok, err := tr.NextBatch(buf[:0])
		if err != nil || !ok {
			return err
		}
		m.StepBatch(batch)
		buf = batch
	}
}

// outcome is the observable state a split must preserve exactly.
type outcome struct {
	reports []race.Report
	stats   monitor.RAStats
	events  uint64
}

func (o outcome) equal(p outcome) bool {
	return race.ReportsEqual(o.reports, p.reports) && o.stats == p.stats && o.events == p.events
}

// runSeq monitors events sequentially under g and returns the outcome.
func runSeq(nthreads int, decls []monitor.LocDecl, events []monitor.Event, g gcMode) outcome {
	m := monitor.New(nthreads, decls)
	g.applyMonitor(m)
	m.StepBatch(events)
	return outcome{reports: m.Reports(), stats: m.RAStats(), events: m.Events()}
}

// snapshotSeq runs a sequential monitor to k under g and snapshots it.
func snapshotSeq(t *testing.T, nthreads int, decls []monitor.LocDecl, events []monitor.Event, k int, g gcMode) []byte {
	t.Helper()
	m := monitor.New(nthreads, decls)
	g.applyMonitor(m)
	m.StepBatch(events[:k])
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot at %d: %v", k, err)
	}
	return buf.Bytes()
}

// restore decodes a snapshot and opens it at one shard: a sequential
// monitor with the snapshot's recorded GC state.
func restore(t *testing.T, snap []byte) *monitor.Monitor {
	t.Helper()
	s, err := monitor.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	m := s.Open(monitor.PipelineConfig{})
	if m.BackendLoads() != nil {
		t.Fatal("restore: a one-shard Open built back-ends")
	}
	return m
}

// resumeSeq restores a snapshot into a sequential monitor, finishes the
// stream and returns the outcome.
func resumeSeq(t *testing.T, snap []byte, rest []monitor.Event) outcome {
	t.Helper()
	m := restore(t, snap)
	m.StepBatch(rest)
	return outcome{reports: m.Reports(), stats: m.RAStats(), events: m.Events()}
}

// resumePipeline opens a snapshot at the given shard count (zero GC
// fields: continue with the snapshot's recorded GC state), finishes the
// stream and returns the outcome.
func resumePipeline(t *testing.T, snap []byte, rest []monitor.Event, shards int) outcome {
	t.Helper()
	s, err := monitor.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	p := s.Open(monitor.PipelineConfig{Shards: shards})
	p.StepBatch(rest)
	reports := p.Finish()
	return outcome{reports: reports, stats: p.RAStats(), events: p.Events()}
}

// splitGrid returns the split points exercised for a stream of length n:
// the ends, near-ends, and interior points that do not align with GC
// intervals or batch boundaries.
func splitGrid(n int) []int {
	grid := []int{0, 1, n / 5, n / 2, 4 * n / 5, n - 1, n}
	out := grid[:0]
	seen := -1
	for _, k := range grid {
		if k < 0 || k > n || k == seen {
			continue
		}
		out = append(out, k)
		seen = k
	}
	return out
}

// TestSplitResumeParity is the full metamorphic sweep: 210 schedgen
// streams (70 seeds × 3 policies, stale reads, halts on a third of the
// seeds, Zipf location skew on every tenth seed) × every grid split
// point × {1,2,4,8} shards × {GC-16, default} — run-to-k → snapshot →
// restore → finish must reproduce the unsplit outcome exactly.
// Sequential checkpoints resume into pipelines
// at every shard count (the shards=1 row is the degenerate-path
// regression), which also makes every row a cross-mode resume proof.
func TestSplitResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	streams, checks := 0, 0
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
			for _, g := range gcModes {
				want := runSeq(tb.Threads(), tb.Decls(), events, g)
				for _, k := range splitGrid(len(events)) {
					snap := snapshotSeq(t, tb.Threads(), tb.Decls(), events, k, g)
					if got := resumeSeq(t, snap, events[k:]); !got.equal(want) {
						t.Fatalf("seed %d %v %s k=%d: sequential resume diverged\ngot  %+v\nwant %+v",
							seed, pol, g.name, k, got, want)
					}
					checks++
					for _, shards := range []int{1, 2, 4, 8} {
						if got := resumePipeline(t, snap, events[k:], shards); !got.equal(want) {
							t.Fatalf("seed %d %v %s k=%d shards=%d: pipeline resume diverged\ngot  %+v\nwant %+v",
								seed, pol, g.name, k, shards, got, want)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("split-resume parity held on %d schedgen streams (%d split×config checks)", streams, checks)
}

// TestSplitResumePipelineOrigin closes the other direction of the
// cross-mode square: checkpoints TAKEN BY a pipeline (quiesce-drain-
// snapshot, at every shard count) resume sequentially and as pipelines,
// reproducing the unsplit outcome — and the pipeline keeps running
// correctly after the mid-stream snapshot it served.
func TestSplitResumePipelineOrigin(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	for seed := int64(0); seed < 12; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gcModes {
				want := runSeq(tb.Threads(), tb.Decls(), events, g)
				k := len(events) / 2
				for _, shards := range []int{1, 2, 4, 8} {
					pl := monitor.NewPipeline(tb.Threads(), tb.Decls(), g.pipelineConfig(shards))
					pl.StepBatch(events[:k])
					var buf bytes.Buffer
					if err := pl.Snapshot(&buf); err != nil {
						t.Fatal(err)
					}
					// The snapshotted pipeline itself finishes unharmed.
					pl.StepBatch(events[k:])
					cont := outcome{reports: pl.Finish(), stats: pl.RAStats(), events: pl.Events()}
					if !cont.equal(want) {
						t.Fatalf("seed %d %v %s shards=%d: pipeline diverged after serving a snapshot", seed, pol, g.name, shards)
					}
					if got := resumeSeq(t, buf.Bytes(), events[k:]); !got.equal(want) {
						t.Fatalf("seed %d %v %s shards=%d: pipeline→sequential resume diverged", seed, pol, g.name, shards)
					}
					if got := resumePipeline(t, buf.Bytes(), events[k:], 3); !got.equal(want) {
						t.Fatalf("seed %d %v %s shards=%d: pipeline→pipeline(3) resume diverged", seed, pol, g.name, shards)
					}
				}
			}
		}
	}
}

// TestDoubleSplitResume: a snapshot OF A RESTORED monitor is as good as
// the first — run to k1, snapshot, restore, run to k2, snapshot again,
// restore again, finish; and the second snapshot must be byte-identical
// to the one an unsplit run writes at k2 (the codec is canonical, so
// resume composes indefinitely).
func TestDoubleSplitResume(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	for seed := int64(0); seed < 24; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			k1, k2 := len(events)/3, 2*len(events)/3
			for _, g := range gcModes {
				want := runSeq(tb.Threads(), tb.Decls(), events, g)
				snap1 := snapshotSeq(t, tb.Threads(), tb.Decls(), events, k1, g)
				m := restore(t, snap1)
				m.StepBatch(events[k1:k2])
				var snap2 bytes.Buffer
				if err := m.Snapshot(&snap2); err != nil {
					t.Fatal(err)
				}
				unsplitAtK2 := snapshotSeq(t, tb.Threads(), tb.Decls(), events, k2, g)
				if !bytes.Equal(snap2.Bytes(), unsplitAtK2) {
					t.Fatalf("seed %d %v %s: second snapshot at k2=%d not byte-identical to the unsplit snapshot",
						seed, pol, g.name, k2)
				}
				if got := resumeSeq(t, snap2.Bytes(), events[k2:]); !got.equal(want) {
					t.Fatalf("seed %d %v %s: double-split resume diverged", seed, pol, g.name)
				}
				if got := resumePipeline(t, snap2.Bytes(), events[k2:], 4); !got.equal(want) {
					t.Fatalf("seed %d %v %s: double-split pipeline resume diverged", seed, pol, g.name)
				}
			}
		}
	}
}

// TestCrossConfigResume: a checkpoint taken under one GC regime resumes
// under another — snapshot under GC-16, resume under GC-64 (and the
// reverse; both sweep within the 260-event streams), or snapshot under
// the default and resume under GC-16 — and the REPORT set still matches
// the unsplit run exactly. (Retention telemetry legitimately differs
// across regimes, so only reports are compared; the no-op-join
// invariant is what makes the report set interval-independent.)
func TestCrossConfigResume(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	for seed := int64(0); seed < 24; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := runSeq(tb.Threads(), tb.Decls(), events, gcMode{})
			k := len(events) / 2
			gc64 := gcMode{name: "gc64", interval: 64}
			pairs := []struct{ at, resume gcMode }{
				{gcModes[0], gc64},       // GC-16 → GC-64
				{gc64, gcModes[0]},       // GC-64 → GC-16
				{gcModes[1], gcModes[0]}, // default → GC-16
			}
			for _, pair := range pairs {
				snap := snapshotSeq(t, tb.Threads(), tb.Decls(), events, k, pair.at)
				m := restore(t, snap)
				pair.resume.applyMonitor(m)
				m.StepBatch(events[k:])
				if !race.ReportsEqual(m.Reports(), want.reports) {
					t.Fatalf("seed %d %v %s→%s: cross-config resume changed the report set",
						seed, pol, pair.at.name, pair.resume.name)
				}
				// And sharded: restore into a pipeline that overrides the GC
				// regime at resume time.
				s, err := monitor.ReadSnapshot(bytes.NewReader(snap))
				if err != nil {
					t.Fatal(err)
				}
				pl := s.Open(pair.resume.pipelineConfig(4))
				pl.StepBatch(events[k:])
				if got := pl.Finish(); !race.ReportsEqual(got, want.reports) {
					t.Fatalf("seed %d %v %s→%s shards=4: cross-config pipeline resume changed the report set",
						seed, pol, pair.at.name, pair.resume.name)
				}
			}
		}
	}
}

// TestWireResumeParity: the end-to-end crash-resume story over the
// binary wire format — encode a schedgen stream (halt-free for every
// seed, plus a halt-carrying one for every other seed), ingest to k
// through a TraceReader, checkpoint monitor + reader, then reopen the
// trace, ResumeAt the recorded byte offset and finish: reports, stats
// and event counts must equal the one-shot ingest. Split points land
// mid-frame (pending events ride the snapshot).
func TestWireResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("split-resume sweep skipped in -short mode")
	}
	// Short per-thread programs (Iters 4 ≈ 170 events total < MaxEvents),
	// so every thread RUNS TO COMPLETION and EmitHalts really emits halt
	// events — checkpoints on halt-carrying streams then land both before
	// and after halts, and mid-frame with a pending pre-halt access
	// of an already-decoded halt. A long-program config here would never
	// halt within the event budget and silently skip that coverage.
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 4, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	for seed := int64(0); seed < 12; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, halts := range []bool{false, true} {
			if halts && seed%2 != 0 {
				continue
			}
			var wire bytes.Buffer
			n, completed, err := schedgen.Encode(&wire, p, tb, schedgen.Options{
				Policy: schedgen.Bursty, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30,
				EmitHalts: halts,
			}, monitor.BinaryV2)
			if err != nil {
				t.Fatal(err)
			}
			if halts && !completed {
				t.Fatalf("seed %d: halt fixture did not run to completion — no halts emitted", seed)
			}
			ref, err := monitor.MonitorReader(bytes.NewReader(wire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range splitGrid(n) {
				tr, err := monitor.NewTraceReader(bytes.NewReader(wire.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				m := tr.NewMonitor()
				for i := 0; i < k; i++ {
					e, ok, err := tr.Next()
					if err != nil || !ok {
						t.Fatalf("seed %d halts=%v k=%d: short trace (i=%d ok=%v err=%v)", seed, halts, k, i, ok, err)
					}
					m.Step(e)
				}
				var snap, plain bytes.Buffer
				if err := tr.Checkpoint(&snap, m); err != nil {
					t.Fatal(err)
				}
				// The continuation is one more section before the end
				// section (tag 0, length 0) that closes the plain snapshot.
				if err := m.Snapshot(&plain); err != nil {
					t.Fatal(err)
				}
				if snap.Len() <= plain.Len() || !bytes.HasPrefix(snap.Bytes(), plain.Bytes()[:plain.Len()-2]) {
					t.Fatal("snapshot lost its reader continuation")
				}
				s, err := monitor.ReadSnapshot(bytes.NewReader(snap.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				tr2, err := monitor.NewTraceReader(bytes.NewReader(wire.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if err := tr2.ResumeAt(s); err != nil {
					t.Fatalf("seed %d halts=%v k=%d: %v", seed, halts, k, err)
				}
				m2 := s.Open(monitor.PipelineConfig{})
				if m2.BackendLoads() != nil {
					t.Fatal("a one-shard Open built back-ends")
				}
				if err := stepAll(tr2, m2); err != nil {
					t.Fatal(err)
				}
				if !race.ReportsEqual(m2.Reports(), ref.Reports()) ||
					m2.RAStats() != ref.RAStats() || m2.Events() != ref.Events() {
					t.Fatalf("seed %d halts=%v k=%d: wire resume diverged\ngot  %v %+v %d\nwant %v %+v %d",
						seed, halts, k, m2.Reports(), m2.RAStats(), m2.Events(),
						ref.Reports(), ref.RAStats(), ref.Events())
				}
			}
		}
	}
}
