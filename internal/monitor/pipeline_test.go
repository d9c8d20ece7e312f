package monitor

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// mustNotLeakGoroutines runs fn and fails if the goroutine count has not
// returned to its starting level shortly after — the leak detector for
// the pipeline teardown paths. (Retries absorb exiting goroutines that
// have not been reaped yet.)
func mustNotLeakGoroutines(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pipelineRaces feeds events through a fresh Pipeline — even at one
// shard, unlike Open — and returns its reports.
func pipelineRaces(nthreads int, decls []LocDecl, events []Event, cfg PipelineConfig) []race.Report {
	p := NewPipeline(nthreads, decls, cfg)
	p.StepBatch(events)
	return p.Finish()
}

// TestPipelineMatrixMatchesSequential is the pipeline determinism bar on
// synthetic streams: byte-identical reports to the sequential monitor at
// every (shard count, batch size, GC interval) combination, on both an
// atomic-sync and an RA-heavy workload. (The schedgen-stream and corpus
// sweeps live in internal/modeltest.)
func TestPipelineMatrixMatchesSequential(t *testing.T) {
	workloads := []struct {
		name   string
		decls  []LocDecl
		events []Event
	}{
		{"atomic", nil, nil},
		{"ra", nil, nil},
	}
	workloads[0].decls, workloads[0].events = syntheticWorkload(6, 24, 30_000, 31)
	workloads[1].decls, workloads[1].events = raWorkload(5, 12, 30_000, 17)

	for _, w := range workloads {
		for _, interval := range []uint64{16, 0} {
			ref := New(6, w.decls)
			if interval > 0 {
				ref.SetGCInterval(interval)
			}
			ref.StepBatch(w.events)
			want := ref.Reports()
			if len(want) == 0 {
				t.Fatalf("%s: workload produced no races; not a useful fixture", w.name)
			}
			for _, shards := range []int{1, 2, 3, 4, 8} {
				for _, batch := range []int{1, 64, 4096} {
					got := pipelineRaces(6, w.decls, w.events, PipelineConfig{
						Shards: shards, BatchSize: batch, GCInterval: interval,
					})
					if !race.ReportsEqual(got, want) {
						t.Fatalf("%s shards=%d batch=%d gc=%d: pipeline diverged\ngot  %v\nwant %v",
							w.name, shards, batch, interval, got, want)
					}
				}
			}
		}
	}
}

// TestPipelineBackpressure: a tiny queue depth forces the front-end to
// block on full rings mid-stream; the result must not change.
func TestPipelineBackpressure(t *testing.T) {
	decls, events := syntheticWorkload(6, 24, 30_000, 31)
	want := pipelineRaces(6, decls, events, PipelineConfig{Shards: 1})
	got := pipelineRaces(6, decls, events, PipelineConfig{Shards: 4, BatchSize: 8, QueueDepth: 1})
	if !race.ReportsEqual(got, want) {
		t.Fatalf("backpressured pipeline diverged: got %v, want %v", got, want)
	}
}

// TestPipelineRaceStress hammers the pipeline with many back-ends over a
// mixed stream with heavy synchronisation traffic — the test exists to
// run under `go test -race` (CI does), where the checker mirrors, the
// delta side channel and the SPSC rings are all data-race-checked.
func TestPipelineRaceStress(t *testing.T) {
	decls, events := raWorkload(8, 24, 120_000, 41)
	ref := New(8, decls)
	ref.StepBatch(events)
	want := ref.Reports()
	for _, cfg := range []PipelineConfig{
		{Shards: 8, BatchSize: 64, QueueDepth: 2},
		{Shards: 4, BatchSize: 1024, GCInterval: 32},
		{Shards: 3, BatchSize: 1},
	} {
		p := NewPipeline(8, decls, cfg)
		// Feed in ragged batches so flushes land at odd positions.
		for i := 0; i < len(events); {
			n := 1 + (i*7)%997
			if i+n > len(events) {
				n = len(events) - i
			}
			p.StepBatch(events[i : i+n])
			i += n
		}
		if got := p.Finish(); !race.ReportsEqual(got, want) {
			t.Fatalf("%+v: pipeline diverged under stress", cfg)
		}
		if got := p.Finish(); !race.ReportsEqual(got, want) {
			t.Fatalf("%+v: Finish is not idempotent", cfg)
		}
		if p.Events() != uint64(len(events)) {
			t.Fatalf("%+v: Events() = %d, want %d", cfg, p.Events(), len(events))
		}
	}
}

// TestPipelineAbortNoLeak: aborting a pipeline mid-stream — including
// while a feeder is concurrently blocked on a full ring — tears down
// every back-end goroutine. Runs under -race in CI, so the teardown
// paths (Close vs blocked Put, Close vs free-ring recycling) are
// data-race-checked too.
func TestPipelineAbortNoLeak(t *testing.T) {
	decls, events := raWorkload(6, 18, 60_000, 13)
	// Abort from the feeding goroutine at several positions.
	mustNotLeakGoroutines(t, func() {
		for _, k := range []int{0, 1, 30_000, 60_000} {
			p := NewPipeline(6, decls, PipelineConfig{Shards: 4, BatchSize: 16, QueueDepth: 1})
			p.StepBatch(events[:k])
			p.Abort()
			p.Abort() // idempotent
			if got := p.Finish(); got != nil {
				t.Fatalf("Finish after Abort returned reports: %v", got)
			}
		}
	})
	// Abort from another goroutine while the feeder is live (and likely
	// blocked: tiny batches, depth-1 rings, no consumer keeping up once
	// the abort lands). The feeder must unblock and run to completion.
	mustNotLeakGoroutines(t, func() {
		for i := 0; i < 20; i++ {
			p := NewPipeline(6, decls, PipelineConfig{Shards: 3, BatchSize: 4, QueueDepth: 1})
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for j := range events {
					p.Step(events[j])
				}
			}()
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			p.Abort()
			<-fed
		}
	})
}

// haltRAStream builds a retire-heavy RA stream: writer threads publish a
// burst of RA messages, read each other once, and fall silent (halting
// when halts is true), while one reader thread keeps running. Without
// halts the silent writers pin the GC frontier forever; with halts their
// frontier entries become +∞ and the window can close.
func haltRAStream(halts bool) ([]LocDecl, []Event) {
	decls := []LocDecl{
		{Name: "R", Kind: prog.ReleaseAcquire},
		{Name: "x", Kind: prog.NonAtomic},
	}
	const writers = 3
	var events []Event
	tm := int64(0)
	for w := int32(0); w < writers; w++ {
		for i := 0; i < 50; i++ {
			tm++
			events = append(events, Event{Thread: w, Loc: 0, Kind: WriteRA, Time: ts.FromInt(tm)})
		}
		// Each writer acquires the latest message so far, so the writers
		// are pairwise synchronised up to their retirement point.
		events = append(events, Event{Thread: w, Loc: 0, Kind: ReadRA, Time: ts.FromInt(tm)})
		if halts {
			events = append(events, Event{Thread: w, Kind: KindHalt})
		}
	}
	// The long-lived reader keeps consuming the latest message and
	// touching data; everything it could learn from the retired writers
	// it has already learnt.
	for i := 0; i < 2000; i++ {
		events = append(events,
			Event{Thread: writers, Loc: 0, Kind: ReadRA, Time: ts.FromInt(tm)},
			Event{Thread: writers, Loc: 1, Kind: WriteNA})
	}
	return decls, events
}

// TestHaltUnpinsGC is the thread-retirement satellite's differential
// bar: on a retire-heavy stream, reports are unchanged by halt events
// while ra_collected strictly improves (and the live set drops to the
// window the surviving reader actually needs).
func TestHaltUnpinsGC(t *testing.T) {
	declsPlain, plain := haltRAStream(false)
	declsHalt, halted := haltRAStream(true)
	mPlain := New(4, declsPlain)
	mPlain.SetGCInterval(64)
	mPlain.StepBatch(plain)
	mHalt := New(4, declsHalt)
	mHalt.SetGCInterval(64)
	mHalt.StepBatch(halted)

	if !race.ReportsEqual(mPlain.Reports(), mHalt.Reports()) {
		t.Fatalf("halt events changed the report set:\nplain %v\nhalt  %v",
			mPlain.Reports(), mHalt.Reports())
	}
	sp, sh := mPlain.RAStats(), mHalt.RAStats()
	if sh.Collected <= sp.Collected {
		t.Fatalf("halts did not improve collection: collected %d (halt) vs %d (plain)",
			sh.Collected, sp.Collected)
	}
	if sh.Live >= sp.Live {
		t.Fatalf("halts did not shrink the live set: live %d (halt) vs %d (plain)",
			sh.Live, sp.Live)
	}
}

// TestHaltAllThreads: once every thread has halted the frontier is +∞
// everywhere and a sweep reclaims every retained message.
func TestHaltAllThreads(t *testing.T) {
	decls := []LocDecl{{Name: "R", Kind: prog.ReleaseAcquire}}
	m := New(2, decls)
	m.SetGCInterval(1 << 62) // no sweeps until we force one
	for i := int64(1); i <= 10; i++ {
		m.Step(Event{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.FromInt(i)})
	}
	m.Step(Event{Thread: 0, Kind: KindHalt})
	m.Step(Event{Thread: 1, Kind: KindHalt})
	m.SetGCInterval(1) // next event sweeps
	m.Step(Event{Thread: 1, Kind: KindHalt})
	if st := m.RAStats(); st.Live != 0 || st.Collected != 10 {
		t.Fatalf("all-halted sweep left live=%d collected=%d, want 0/10", st.Live, st.Collected)
	}
}

// TestHaltInPipeline: halt events flow through the pipeline front-end
// with the same retention effect and unchanged reports.
func TestHaltInPipeline(t *testing.T) {
	decls, events := haltRAStream(true)
	ref := New(4, decls)
	ref.SetGCInterval(64)
	ref.StepBatch(events)
	p := NewPipeline(4, decls, PipelineConfig{Shards: 2, GCInterval: 64})
	p.StepBatch(events)
	if got := p.Finish(); !race.ReportsEqual(got, ref.Reports()) {
		t.Fatalf("pipeline with halts diverged: got %v, want %v", got, ref.Reports())
	}
	if p.RAStats() != ref.RAStats() {
		t.Fatalf("pipeline RA stats %+v, want %+v", p.RAStats(), ref.RAStats())
	}
}

// TestHaltViaTableStream sanity-checks the Kind plumbing end to end: a
// halt for an out-of-range thread is rejected by event validation.
func TestHaltValidation(t *testing.T) {
	hdr := Header{Threads: 2, Decls: []LocDecl{{Name: "x", Kind: prog.NonAtomic}}}
	if err := validateEvent(hdr, Event{Thread: 1, Kind: KindHalt}); err != nil {
		t.Fatalf("valid halt rejected: %v", err)
	}
	if err := validateEvent(hdr, Event{Thread: 2, Kind: KindHalt}); err == nil {
		t.Fatal("halt with out-of-range thread accepted")
	}
	if err := validateEvent(hdr, Event{Thread: 0, Kind: Kind(7)}); err == nil {
		t.Fatal("kind 7 accepted")
	}
}

// BenchmarkPipeline4Bursty measures the pipeline at 4 back-ends on the
// bursty reference workload (compare BenchmarkMonitorBursty for the
// sequential bound; real speedups need GOMAXPROCS ≥ shards+1).
func BenchmarkPipeline4Bursty(b *testing.B) {
	decls, events := burstyWorkload(8, 64, 1_000_000, 97)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPipeline(8, decls, PipelineConfig{Shards: 4})
		p.StepBatch(events)
		p.Finish()
	}
	reportEventRate(b, len(events))
}

// TestPipelineAbortContract pins the teardown contract documented on
// Abort: idempotent from any goroutine (including concurrently with
// itself), safe after Snapshot and after Finish, safe while a feeder is
// blocked on a full ring, and afterwards Finish returns nil while
// Snapshot fails. Regression test for the quiesce-vs-Abort deadlock
// (the barrier must only wait for acks whose nil batch was accepted
// before the rings closed).
func TestPipelineAbortContract(t *testing.T) {
	decls, events := raWorkload(6, 18, 40_000, 29)

	t.Run("after-snapshot", func(t *testing.T) {
		mustNotLeakGoroutines(t, func() {
			p := NewPipeline(6, decls, PipelineConfig{Shards: 4, BatchSize: 16})
			p.StepBatch(events[:20_000])
			var snap bytes.Buffer
			if err := p.Snapshot(&snap); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			p.Abort()
			if got := p.Finish(); got != nil {
				t.Fatalf("Finish after Abort returned reports: %v", got)
			}
			if err := p.Snapshot(&snap); err == nil || !strings.Contains(err.Error(), "abort") {
				t.Fatalf("Snapshot after Abort: err = %v, want abort error", err)
			}
			// The snapshot taken before the abort must still restore.
			s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("pre-abort snapshot unreadable: %v", err)
			}
			if got := s.take().Events(); got != 20_000 {
				t.Fatalf("pre-abort snapshot events = %d, want 20000", got)
			}
		})
	})

	t.Run("concurrent-double-abort", func(t *testing.T) {
		mustNotLeakGoroutines(t, func() {
			for i := 0; i < 50; i++ {
				p := NewPipeline(6, decls, PipelineConfig{Shards: 3, BatchSize: 4, QueueDepth: 1})
				var feeders sync.WaitGroup
				feeders.Add(1)
				go func() {
					defer feeders.Done()
					p.StepBatch(events) // likely blocks on a full ring mid-way
				}()
				var wg sync.WaitGroup
				for a := 0; a < 3; a++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p.Abort()
					}()
				}
				wg.Wait() // every Abort call returned ⇒ back-ends gone
				feeders.Wait()
				if got := p.Finish(); got != nil {
					t.Fatalf("Finish after concurrent aborts returned reports: %v", got)
				}
			}
		})
	})

	t.Run("after-finish", func(t *testing.T) {
		mustNotLeakGoroutines(t, func() {
			p := NewPipeline(6, decls, PipelineConfig{Shards: 4})
			p.StepBatch(events)
			want := p.Finish()
			p.Abort() // must be a harmless no-op on a finished pipeline
			if got := p.Finish(); !race.ReportsEqual(got, want) {
				t.Fatalf("Finish changed after post-Finish Abort: got %v, want %v", got, want)
			}
		})
	})

	t.Run("quiesce-accessor-after-abort", func(t *testing.T) {
		mustNotLeakGoroutines(t, func() {
			p := NewPipeline(6, decls, PipelineConfig{Shards: 4, BatchSize: 16})
			p.StepBatch(events[:10_000])
			p.Abort()
			// BackendLoads quiesces; after an abort the barrier must not
			// wait on back-ends that will never acknowledge.
			_ = p.BackendLoads()
			_ = p.Stats()
			if p.Events() != 10_000 {
				t.Fatalf("Events after abort = %d, want 10000", p.Events())
			}
		})
	})
}
