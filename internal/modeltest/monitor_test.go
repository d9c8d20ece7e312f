package modeltest

// Differential validation of the streaming race monitor: on any trace,
// the online vector-clock pass (internal/monitor) must report exactly
// the race set the exhaustive happens-before oracle (race.Races) reports.
// Three sweeps: every catalogued litmus program (including the N-thread
// IRIW/WRC family instances), ≥200 random progsynth programs, and
// schedgen-generated schedules of scaled programs — the streams the
// monitor exists for, which never pass through the explorer at all.

import (
	"bytes"
	"sync"
	"testing"

	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

// tracesPerProgram caps how many traces are compared per program; wide
// programs (IRIW+at+N4) have hundreds of thousands of traces and the
// prefix is ample coverage.
const tracesPerProgram = 4_000

// diffProgram runs monitor-vs-oracle on up to cap traces of p, returning
// the traces compared.
func diffProgram(t *testing.T, p *prog.Program, cap int) int {
	t.Helper()
	tb := monitor.NewTable(p)
	var buf []monitor.Event
	count := 0
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		count++
		want := race.Races(tr)
		m := tb.NewMonitor()
		var err error
		buf, err = tb.Events(tr, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range buf {
			m.Step(e)
		}
		got := m.Reports()
		if !race.ReportsEqual(got, want) {
			t.Fatalf("%s: monitor diverged from race.Races on trace %v\nmonitor %v\noracle  %v",
				p.Name, tr, got, want)
		}
		return count < cap
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return count
}

// TestMonitorMatchesRacesOnCorpus sweeps every catalogued litmus program.
func TestMonitorMatchesRacesOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short mode")
	}
	total := 0
	for _, tc := range litmus.Suite() {
		total += diffProgram(t, tc.Prog, tracesPerProgram)
	}
	t.Logf("monitor == race.Races on %d corpus traces", total)
}

// TestMonitorMatchesRacesOnRandom sweeps ≥200 random programs (the same
// generator envelope as the op/ax equivalence tests).
func TestMonitorMatchesRacesOnRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short mode")
	}
	const samples = 220
	total := 0
	for seed := int64(0); seed < samples; seed++ {
		p := progsynth.Random(seed, progsynth.Config{})
		total += diffProgram(t, p, 600)
	}
	t.Logf("monitor == race.Races on %d random-program traces", total)
}

// TestMonitorMatchesRacesOnSchedules closes the loop on generated
// schedules: 210 streams (70 seeds × 3 policies) of scaled programs,
// with stale reads, compared against the oracle on the synthesised
// transitions. Every tenth seed generates under a Zipf location skew
// (LocSkew 1.3), so ~20 of the streams concentrate their nonatomic
// traffic on a few hot locations, unevenly loading the pipeline's
// back-ends; at least one of those must saturate a dedup row, so the
// oracle also covers the checker's skipped vector scans, not only its
// full ones. Every stream is checked twice — once with the default
// monitor and once with an aggressive GC interval, so the windowed RA
// collection and epoch handoffs are exercised on every stream and proved
// report-preserving — and through the pipeline matrix. (Short streams:
// the oracle's transitive closure is cubic.)
func TestMonitorMatchesRacesOnSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short mode")
	}
	cfg := progsynth.ScaledConfig{
		Threads: 6, Iters: 40, OpsPerIter: 5,
		NonAtomic: 8, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	streams := 0
	var skewedSkips uint64
	for seed := int64(0); seed < 70; seed++ {
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		var skew float64
		if seed%10 == 0 {
			skew = 1.3
		}
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			events, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30, LocSkew: skew,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			streams++
			m := tb.NewMonitor()
			for _, e := range events {
				m.Step(e)
			}
			got := m.Reports()
			if skew > 0 {
				skewedSkips += m.Stats().Counter("monitor.vector_scans_skipped")
			}
			want := race.Races(monitor.Transitions(events, tb.Decls()))
			if !race.ReportsEqual(got, want) {
				t.Fatalf("seed %d %v: monitor diverged on schedgen stream\nmonitor %v\noracle  %v",
					seed, pol, got, want)
			}
			// Aggressive windowed GC must not change the report set.
			mgc := tb.NewMonitor()
			mgc.SetGCInterval(16)
			for _, e := range events {
				mgc.Step(e)
			}
			if !race.ReportsEqual(mgc.Reports(), want) {
				t.Fatalf("seed %d %v: windowed monitor (GC interval 16) diverged", seed, pol)
			}
			// The parallel pipeline must be byte-identical to the
			// sequential pass on EVERY stream, across the full
			// (shard count × batch size × GC interval) matrix.
			for _, shards := range []int{1, 2, 3, 4, 8} {
				for _, batch := range []int{1, 64, 4096} {
					for _, gc := range []uint64{16, 0} {
						pl := monitor.NewPipeline(tb.Threads(), tb.Decls(), monitor.PipelineConfig{
							Shards: shards, BatchSize: batch, GCInterval: gc,
						})
						pl.StepBatch(events)
						got := pl.Finish()
						if !race.ReportsEqual(got, want) {
							t.Fatalf("seed %d %v shards=%d batch=%d gc=%d: pipeline diverged",
								seed, pol, shards, batch, gc)
						}
					}
				}
			}
			if seed >= 8 {
				continue
			}
			// For a subset: the sinks monitor.Open builds, halt-carrying
			// streams, and the wire-format round trips (binary and text).
			for _, shards := range []int{2, 3} {
				sk := monitor.Open(monitor.Header{Threads: tb.Threads(), Decls: tb.Decls()}, monitor.PipelineConfig{Shards: shards})
				sk.StepBatch(events)
				if sharded := sk.Finish(); !race.ReportsEqual(sharded, want) {
					t.Fatalf("seed %d %v shards=%d: sharded mode diverged", seed, pol, shards)
				}
			}
			// Telemetry must be free: a pipeline serving concurrent
			// Obs().Snapshot() reads mid-stream, with exact Stats()
			// calls interleaved by the feeder, produces byte-identical
			// reports, RAStats, and checkpoint bytes to the plain
			// sequential monitor at the same GC interval.
			{
				pm := monitor.NewPipeline(tb.Threads(), tb.Decls(), monitor.PipelineConfig{
					Shards: 2, BatchSize: 64, GCInterval: 16,
				})
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					reg := pm.Obs()
					for {
						select {
						case <-stop:
							return
						default:
							_ = reg.Snapshot()
						}
					}
				}()
				half := len(events) / 2
				pm.StepBatch(events[:half])
				_ = pm.Stats()
				pm.StepBatch(events[half:])
				var pb bytes.Buffer
				if err := pm.Snapshot(&pb); err != nil {
					t.Fatal(err)
				}
				close(stop)
				wg.Wait()
				if got := pm.Finish(); !race.ReportsEqual(got, want) {
					t.Fatalf("seed %d %v: metrics-read pipeline diverged", seed, pol)
				}
				if pm.RAStats() != mgc.RAStats() {
					t.Fatalf("seed %d %v: metrics-read pipeline RAStats %+v, want %+v",
						seed, pol, pm.RAStats(), mgc.RAStats())
				}
				var sb bytes.Buffer
				if err := mgc.Snapshot(&sb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pb.Bytes(), sb.Bytes()) {
					t.Fatalf("seed %d %v: metrics-read pipeline snapshot differs from sequential (%d vs %d bytes)",
						seed, pol, pb.Len(), sb.Len())
				}
			}

			// Thread-retirement events never change the report set.
			haltEvents, _, err := schedgen.Generate(p, tb, schedgen.Options{
				Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30, LocSkew: skew, EmitHalts: true,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			mh := tb.NewMonitor()
			mh.SetGCInterval(16)
			for _, e := range haltEvents {
				mh.Step(e)
			}
			if !race.ReportsEqual(mh.Reports(), want) {
				t.Fatalf("seed %d %v: halt-carrying stream diverged", seed, pol)
			}
			for _, format := range []monitor.Format{monitor.BinaryV2, monitor.Text} {
				var buf bytes.Buffer
				if _, _, err := schedgen.Encode(&buf, p, tb, schedgen.Options{
					Policy: pol, Seed: seed * 17, MaxEvents: 260, StaleReadPct: 30, LocSkew: skew,
				}, format); err != nil {
					t.Fatal(err)
				}
				data := buf.Bytes()
				decoded, err := monitor.ReadRaces(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if !race.ReportsEqual(decoded, want) {
					t.Fatalf("seed %d %v: %v wire round-trip diverged", seed, pol, format)
				}
			}
		}
	}
	if skewedSkips == 0 {
		t.Error("no Zipf-skewed stream saturated a dedup row: the skipped vector scans went unchecked")
	}
	t.Logf("monitor == race.Races on %d schedgen streams (windowed GC + pipeline matrix, ~1/10 Zipf-skewed; %d vector scans skipped on the skewed ones)", streams, skewedSkips)
}
