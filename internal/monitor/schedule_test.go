package monitor_test

// Benches and tests over schedgen schedules of progsynth programs, the
// streams racemon generates. They live in the external test package
// because schedgen imports monitor.

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
	"localdrf/internal/staticrace"
)

// generate returns the schedule of seed-1 program cfg under opt.
func generate(tb testing.TB, cfg progsynth.ScaledConfig, opt schedgen.Options) (*monitor.Table, []monitor.Event) {
	tb.Helper()
	tab := monitor.NewTable(progsynth.Scaled(1, cfg))
	events, _, err := schedgen.Generate(tab.Program(), tab, opt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tab, events
}

// BenchmarkScheduleBursty runs the sequential monitor over racemon's
// default schedule: a 1M-event bursty schedule of the default scaled
// program with 10% stale reads.
//
//   - hb, syncp, short64: one sub-bench per predicate;
//   - hb-scrape-1ms: hb with a goroutine calling Obs().Snapshot() every
//     millisecond, the /stats endpoint's access pattern;
//   - snapshot-restore: Snapshot plus ReadSnapshot of the state after the
//     whole schedule; ev/s counts the schedule's events per round trip.
func BenchmarkScheduleBursty(b *testing.B) {
	const n = 1_000_000
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(n)
	tab, events := generate(b, cfg, schedgen.Options{Policy: schedgen.Bursty, Seed: 1, MaxEvents: n, StaleReadPct: 10})
	for _, pc := range []struct {
		name string
		pred monitor.Predicate
		k    int
	}{{"hb", monitor.PredHB, 0}, {"syncp", monitor.PredSyncP, 0}, {"short64", monitor.PredShort, 64}} {
		b.Run(pc.name, func(b *testing.B) {
			monitor.BenchMonitor(b, func() *monitor.Monitor {
				m := tab.NewMonitor()
				m.SetPredicate(pc.pred, pc.k)
				return m
			}, events)
		})
	}
	b.Run("hb-scrape-1ms", func(b *testing.B) {
		// The scraper follows each op's fresh monitor.
		var cur atomic.Pointer[monitor.Monitor]
		cur.Store(tab.NewMonitor())
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = cur.Load().Obs().Snapshot()
				}
			}
		}()
		monitor.BenchMonitor(b, func() *monitor.Monitor {
			m := tab.NewMonitor()
			cur.Store(m)
			return m
		}, events)
		close(stop)
		<-done
	})
	b.Run("snapshot-restore", func(b *testing.B) {
		m := tab.NewMonitor()
		m.StepBatch(events)
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := m.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := monitor.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		monitor.ReportEventRate(b, len(events))
		b.ReportMetric(float64(buf.Len()), "snapshot-B")
	})
}

// BenchmarkSchedulePrivate runs the sequential monitor over a 1M-event
// bursty schedule of a private-heavy program (per-thread private
// locations take 60% of the nonatomic traffic), without and with the
// static certificate's skip mask. The difference is the checker work
// the prefilter saves.
func BenchmarkSchedulePrivate(b *testing.B) {
	const n = 1_000_000
	cfg := progsynth.ScaledDefaults()
	cfg.PrivateLocs = 6
	cfg.PrivatePct = 60
	cfg.Iters = cfg.IterationsFor(n)
	tab, events := generate(b, cfg, schedgen.Options{Policy: schedgen.Bursty, Seed: 1, MaxEvents: n, StaleReadPct: 10})
	mask := monitor.StaticFilter(tab.Decls(), staticrace.Analyze(tab.Program()).RaceFree)
	if mask == nil {
		b.Fatal("static analysis certified nothing on the private-heavy program")
	}
	b.Run("prefilter-off", func(b *testing.B) {
		monitor.BenchMonitor(b, tab.NewMonitor, events)
	})
	b.Run("prefilter-on", func(b *testing.B) {
		monitor.BenchMonitor(b, func() *monitor.Monitor {
			m := tab.NewMonitor()
			m.SetStaticFilter(mask)
			return m
		}, events)
	})
}

// TestCompactionDemotes: on a 16-thread unfair schedule whose threads
// halt throughout, the GC's sweeps demote escalated vectors whose
// writers went quiet back to epochs. The default-GC run must demote,
// end with fewer escalated vectors than a run that never sweeps, and
// report the same races. The 4-shard pipeline, whose back-ends sweep at
// the same stream positions, must match the sequential run exactly:
// reports, RAStats, demotions and escalated vectors.
func TestCompactionDemotes(t *testing.T) {
	const n = 60_000
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = 16
	cfg.Iters = cfg.IterationsFor(n / 2)
	tab, events := generate(t, cfg, schedgen.Options{Policy: schedgen.Unfair, Seed: 1, MaxEvents: n,
		StaleReadPct: 10, EmitHalts: true})

	m := tab.NewMonitor()
	m.StepBatch(events)
	demotions := m.Stats().Counter("monitor.demotions")
	if demotions == 0 {
		t.Fatal("default GC demoted no escalated vector")
	}
	noSweep := tab.NewMonitor()
	noSweep.SetGCInterval(1 << 62)
	noSweep.StepBatch(events)
	got, never := m.EscalatedVectors(), noSweep.EscalatedVectors()
	t.Logf("%d demotions; %d escalated vectors at the end with compaction, %d without", demotions, got, never)
	if got >= never {
		t.Fatalf("escalated vectors: %d with compaction, %d without", got, never)
	}
	if !race.ReportsEqual(m.Reports(), noSweep.Reports()) {
		t.Fatalf("compaction changed the reports: %v vs %v", m.Reports(), noSweep.Reports())
	}

	p := monitor.NewPipeline(tab.Threads(), tab.Decls(), monitor.PipelineConfig{Shards: 4})
	p.StepBatch(events)
	if got := p.Finish(); !race.ReportsEqual(got, m.Reports()) {
		t.Fatalf("pipeline reports %v, sequential %v", got, m.Reports())
	}
	if p.RAStats() != m.RAStats() {
		t.Fatalf("pipeline RAStats %+v, sequential %+v", p.RAStats(), m.RAStats())
	}
	if got := p.Stats().Counter("monitor.demotions"); got != demotions {
		t.Fatalf("pipeline demoted %d vectors, sequential %d", got, demotions)
	}
	if p.EscalatedVectors() != m.EscalatedVectors() {
		t.Fatalf("pipeline ends with %d escalated vectors, sequential %d", p.EscalatedVectors(), m.EscalatedVectors())
	}
}

// TestShardedMidStreamParity: at several positions of a schedgen stream,
// a 4-shard monitor answers every race reader — Reports, RaceCount,
// EscalatedVectors, RAStats and the monitor.* and predict.* metrics of
// Stats (the sharded snapshot adds only pipeline.* metrics) — exactly
// as the sequential monitor does, under each predicate; feeding then
// continues, and Finish agrees too.
func TestShardedMidStreamParity(t *testing.T) {
	const n = 120_000
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(n)
	tab, events := generate(t, cfg, schedgen.Options{Policy: schedgen.Bursty, Seed: 1, MaxEvents: n, StaleReadPct: 10})
	hdr := monitor.Header{Threads: tab.Threads(), Decls: tab.Decls()}
	for _, pc := range []struct {
		pred monitor.Predicate
		k    int
	}{{monitor.PredHB, 0}, {monitor.PredSyncP, 0}, {monitor.PredShort, 64}} {
		seq := monitor.Open(hdr, monitor.PipelineConfig{Predicate: pc.pred, WindowK: pc.k})
		// NewPipeline, unlike Open, shards a short:k monitor too.
		sh := monitor.NewPipeline(hdr.Threads, hdr.Decls, monitor.PipelineConfig{Shards: 4, Predicate: pc.pred, WindowK: pc.k})
		if len(sh.BackendLoads()) != 4 || seq.BackendLoads() != nil {
			t.Fatalf("%v: want a 4-shard and a sequential monitor", pc.pred)
		}
		prev := 0
		for _, at := range []int{0, 1, 9_999, 40_000, 77_777, len(events)} {
			seq.StepBatch(events[prev:at])
			sh.StepBatch(events[prev:at])
			prev = at
			if got, want := sh.Reports(), seq.Reports(); !race.ReportsEqual(got, want) {
				t.Fatalf("%v at %d: Reports\nsharded    %v\nsequential %v", pc.pred, at, got, want)
			}
			if got, want := sh.RaceCount(), seq.RaceCount(); got != want {
				t.Fatalf("%v at %d: RaceCount %d, sequential %d", pc.pred, at, got, want)
			}
			if got, want := sh.EscalatedVectors(), seq.EscalatedVectors(); got != want {
				t.Fatalf("%v at %d: EscalatedVectors %d, sequential %d", pc.pred, at, got, want)
			}
			if got, want := sh.RAStats(), seq.RAStats(); got != want {
				t.Fatalf("%v at %d: RAStats %+v, sequential %+v", pc.pred, at, got, want)
			}
			got, want := sh.Stats(), seq.Stats()
			for name, w := range want.Counters {
				if g := got.Counters[name]; g != w {
					t.Fatalf("%v at %d: counter %s = %d, sequential %d", pc.pred, at, name, g, w)
				}
			}
			for name, w := range want.Gauges {
				if g := got.Gauges[name]; g != w {
					t.Fatalf("%v at %d: gauge %s = %d, sequential %d", pc.pred, at, name, g, w)
				}
			}
		}
		// Under short:k the window, not the checker, sees the accesses.
		if seq.RaceCount() == 0 || (pc.pred != monitor.PredShort && seq.EscalatedVectors() == 0) {
			t.Fatalf("%v: the stream must race and escalate", pc.pred)
		}
		if got, want := sh.Finish(), seq.Finish(); !race.ReportsEqual(got, want) || len(got) != sh.RaceCount() {
			t.Fatalf("%v: Finish\nsharded    %v\nsequential %v", pc.pred, got, want)
		}
	}
}
