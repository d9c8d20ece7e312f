package monitor

import (
	"fmt"
	"testing"

	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// eq compares two report slices (both in SortReports order).
func eq(a, b []race.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// run feeds events to a fresh monitor and returns its reports.
func run(t *testing.T, nthreads int, decls []LocDecl, events []Event) []race.Report {
	t.Helper()
	m := New(nthreads, decls)
	for _, e := range events {
		m.Step(e)
	}
	return m.Reports()
}

// TestUnorderedConflict is the MP+na shape: write x, write f || read f,
// read x with no synchronisation — every cross-thread pair races.
func TestUnorderedConflict(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "f", Kind: prog.NonAtomic}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteNA},
		{Thread: 1, Loc: 1, Kind: ReadNA},
		{Thread: 1, Loc: 0, Kind: ReadNA},
	}
	got := run(t, 2, decls, events)
	want := []race.Report{
		{Loc: "f", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: false},
		{Loc: "x", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: false},
	}
	if !eq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestAtomicOrdering is the MP shape on a particular trace: the atomic
// flag write happens before the flag read, so the data accesses are
// ordered and race-free.
func TestAtomicOrdering(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "F", Kind: prog.Atomic}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteAT},
		{Thread: 1, Loc: 1, Kind: ReadAT},
		{Thread: 1, Loc: 0, Kind: ReadNA},
	}
	if got := run(t, 2, decls, events); len(got) != 0 {
		t.Fatalf("synchronised trace reported races: %v", got)
	}
	// The interleaving where the read of F precedes the write of F gets
	// no edge (atomic reads synchronise with nothing afterwards), so the
	// x accesses race.
	racy := []Event{
		{Thread: 1, Loc: 1, Kind: ReadAT},
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteAT},
		{Thread: 1, Loc: 0, Kind: ReadNA},
	}
	got := run(t, 2, decls, racy)
	want := []race.Report{{Loc: "x", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: false}}
	if !eq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestAtomicWriteWriteEdge: atomic writes order later atomic writes (and
// transitively the data accesses around them), but atomic *reads* order
// nothing.
func TestAtomicWriteWriteEdge(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "A", Kind: prog.Atomic}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteAT},
		{Thread: 1, Loc: 1, Kind: WriteAT}, // W→W edge: T1 now sees T0's x write
		{Thread: 1, Loc: 0, Kind: WriteNA},
	}
	if got := run(t, 2, decls, events); len(got) != 0 {
		t.Fatalf("write-write atomic edge not honoured: %v", got)
	}
}

// TestRAReadsFrom: an RA read synchronises with exactly the write it
// reads from (same timestamp), not with other RA writes.
func TestRAReadsFrom(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "R", Kind: prog.ReleaseAcquire}}
	t1, t2 := ts.FromInt(1), ts.FromInt(2)
	// T0: x=1; R=@1. T1: reads R@1 (acquires), reads x — ordered.
	sync := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteRA, Time: t1},
		{Thread: 1, Loc: 1, Kind: ReadRA, Time: t1},
		{Thread: 1, Loc: 0, Kind: ReadNA},
	}
	if got := run(t, 2, decls, sync); len(got) != 0 {
		t.Fatalf("RA reads-from edge not honoured: %v", got)
	}
	// T1 reads a different message (@2 written by T2 before T0's write
	// published anything): no edge from T0, so the x accesses race.
	stale := []Event{
		{Thread: 2, Loc: 1, Kind: WriteRA, Time: t2},
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 1, Kind: WriteRA, Time: t1},
		{Thread: 1, Loc: 1, Kind: ReadRA, Time: t2},
		{Thread: 1, Loc: 0, Kind: ReadNA},
	}
	got := run(t, 3, decls, stale)
	want := []race.Report{{Loc: "x", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: false}}
	if !eq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestSameThreadNeverRaces: a thread's own accesses are ordered by
// program order, including across long same-thread bursts (the fast
// path).
func TestSameThreadNeverRaces(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}}
	var events []Event
	for i := 0; i < 1000; i++ {
		k := ReadNA
		if i%3 == 0 {
			k = WriteNA
		}
		events = append(events, Event{Thread: 0, Loc: 0, Kind: k})
	}
	if got := run(t, 1, decls, events); len(got) != 0 {
		t.Fatalf("same-thread accesses reported racing: %v", got)
	}
}

// TestFastPathKindEscalation guards the subtle fast-path case: a read by
// t that races with u must not let a subsequent *write* by t skip the
// rescan — the write forms a differently-kinded report with the same u.
func TestFastPathKindEscalation(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 1, Loc: 0, Kind: ReadNA},  // races: (0 w, 1 r)
		{Thread: 1, Loc: 0, Kind: WriteNA}, // races: (0 w, 1 w) — needs rescan
	}
	got := run(t, 2, decls, events)
	want := []race.Report{
		{Loc: "x", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: false},
		{Loc: "x", ThreadI: 0, ThreadJ: 1, WriteI: true, WriteJ: true},
	}
	if !eq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDifferentialOnLitmusTraces cross-checks the monitor against the
// exhaustive oracle on genuine machine traces of a few racy litmus
// programs (the corpus-wide sweep lives in internal/modeltest).
func TestDifferentialOnLitmusTraces(t *testing.T) {
	for _, name := range []string{"MP+na", "CoRR", "Example1", "WRC", "2+2W"} {
		tc, ok := litmus.Get(name)
		if !ok {
			t.Fatalf("missing litmus test %s", name)
		}
		tb := NewTable(tc.Prog)
		var buf []Event
		traces := 0
		err := explore.Traces(tc.Prog, explore.Options{}, 0, func(tr explore.Trace) bool {
			traces++
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
			if !eq(got, want) {
				t.Fatalf("%s trace %v:\nmonitor %v\noracle  %v", name, tr, got, want)
			}
			return traces < 3000
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// openRaces monitors events through the monitor Open builds for cfg.
func openRaces(nthreads int, decls []LocDecl, events []Event, cfg PipelineConfig) []race.Report {
	s := Open(Header{Threads: nthreads, Decls: decls}, cfg)
	s.StepBatch(events)
	return s.Finish()
}

// TestShardedMatchesUnsharded: a sharded monitor returns exactly the
// single-pass report set at any shard count.
func TestShardedMatchesUnsharded(t *testing.T) {
	decls, events := syntheticWorkload(6, 24, 30_000, 31)
	want := openRaces(6, decls, events, PipelineConfig{})
	if len(want) == 0 {
		t.Fatal("synthetic workload produced no races; not a useful fixture")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got := openRaces(6, decls, events, PipelineConfig{Shards: shards})
		if !eq(got, want) {
			t.Fatalf("shards=%d: got %d reports, want %d\ngot  %v\nwant %v",
				shards, len(got), len(want), got, want)
		}
	}
}

// syntheticWorkload builds a mixed random event stream directly (no
// interpreter): nthreads threads over nlocs locations, 3/4 nonatomic and
// 1/4 atomic, with a deterministic xorshift driver.
func syntheticWorkload(nthreads, nlocs, n int, seed uint64) ([]LocDecl, []Event) {
	decls := make([]LocDecl, nlocs)
	for i := range decls {
		k := prog.NonAtomic
		if i%4 == 3 {
			k = prog.Atomic
		}
		decls[i] = LocDecl{Name: prog.Loc(fmt.Sprintf("l%d", i)), Kind: k}
	}
	x := seed
	rnd := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	events := make([]Event, 0, n)
	for len(events) < n {
		t, l := rnd(nthreads), rnd(nlocs)
		var k Kind
		if decls[l].Kind == prog.Atomic {
			k = ReadAT
			if rnd(2) == 0 {
				k = WriteAT
			}
		} else {
			k = ReadNA
			if rnd(3) == 0 {
				k = WriteNA
			}
		}
		events = append(events, Event{Thread: int32(t), Loc: int32(l), Kind: k})
	}
	return decls, events
}

// TestShardedClampAndSkip: Open clamps shard counts larger than the
// nonatomic location count, and shards owning no nonatomic location are
// skipped — in both cases the report set is identical to the unsharded
// pass.
func TestShardedClampAndSkip(t *testing.T) {
	// Only two NA locations, both ≡ 0 (mod 2): after clamping 8 → 2
	// shards, shard 1 owns nothing and must be skipped, not replayed.
	decls := []LocDecl{
		{Name: "a", Kind: prog.NonAtomic},
		{Name: "A", Kind: prog.Atomic},
		{Name: "b", Kind: prog.NonAtomic},
		{Name: "B", Kind: prog.Atomic},
	}
	var events []Event
	x := uint64(11)
	rnd := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	for i := 0; i < 10_000; i++ {
		l := rnd(4)
		var k Kind
		if decls[l].Kind == prog.Atomic {
			k = ReadAT
			if rnd(2) == 0 {
				k = WriteAT
			}
		} else {
			k = ReadNA
			if rnd(3) == 0 {
				k = WriteNA
			}
		}
		events = append(events, Event{Thread: int32(rnd(4)), Loc: int32(l), Kind: k})
	}
	want := openRaces(4, decls, events, PipelineConfig{})
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	for _, shards := range []int{2, 3, 8, 64} {
		sk := Open(Header{Threads: 4, Decls: decls}, PipelineConfig{Shards: shards})
		sk.Abort()
		if sk.p == nil || len(sk.p.backs) != 2 {
			t.Fatalf("shards=%d: Open did not clamp to the 2 nonatomic locations", shards)
		}
		got := openRaces(4, decls, events, PipelineConfig{Shards: shards})
		if !race.ReportsEqual(got, want) {
			t.Fatalf("shards=%d: got %v, want %v", shards, got, want)
		}
	}
}

// TestRAGCBoundsLive: on a long RA stream whose readers keep up with the
// writer, the windowed GC keeps the live message set bounded by the GC
// window, while a monitor that never sweeps retains every message — and
// both report identically.
func TestRAGCBoundsLive(t *testing.T) {
	decls := []LocDecl{{Name: "R", Kind: prog.ReleaseAcquire}}
	const threads, writes = 4, 5_000
	windowed := New(threads, decls)
	windowed.SetGCInterval(128)
	unbounded := New(threads, decls)
	unbounded.SetGCInterval(1 << 62) // never sweeps within the test
	step := func(e Event) {
		windowed.Step(e)
		unbounded.Step(e)
	}
	for i := int64(1); i <= writes; i++ {
		step(Event{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.FromInt(i)})
		for u := int32(1); u < threads; u++ {
			step(Event{Thread: u, Loc: 0, Kind: ReadRA, Time: ts.FromInt(i)})
		}
	}
	w, u := windowed.RAStats(), unbounded.RAStats()
	if u.Live != writes || u.Collected != 0 {
		t.Fatalf("unbounded monitor: live=%d collected=%d, want %d/0", u.Live, u.Collected, writes)
	}
	if w.Collected == 0 {
		t.Fatal("windowed monitor collected nothing")
	}
	if w.Peak > 256 {
		t.Fatalf("windowed peak %d exceeds the GC window bound", w.Peak)
	}
	if w.Live+int(w.Collected) != writes {
		t.Fatalf("live %d + collected %d ≠ %d writes", w.Live, w.Collected, writes)
	}
	if !race.ReportsEqual(windowed.Reports(), unbounded.Reports()) {
		t.Fatal("windowed and unbounded monitors diverged")
	}
}

// TestGCReportParity: on a racy mixed stream with stale RA reads (reads
// of long-dead messages included), aggressive GC intervals change
// nothing about the report set — dead messages' joins are no-ops.
func TestGCReportParity(t *testing.T) {
	decls, events := raWorkload(5, 12, 40_000, 17)
	ref := New(5, decls)
	ref.SetGCInterval(1 << 62)
	for _, e := range events {
		ref.Step(e)
	}
	want := ref.Reports()
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	for _, interval := range []uint64{1, 7, 64, 1024} {
		m := New(5, decls)
		m.SetGCInterval(interval)
		for _, e := range events {
			m.Step(e)
		}
		if !race.ReportsEqual(m.Reports(), want) {
			t.Fatalf("gc interval %d diverged", interval)
		}
		if st := m.RAStats(); st.Collected == 0 {
			t.Fatalf("gc interval %d collected nothing", interval)
		}
	}
}

// raWorkload synthesises a stream mixing NA, atomic and RA locations,
// with RA reads picking random (often stale, possibly collected)
// timestamps — the adversarial shape for the windowed GC.
func raWorkload(nthreads, nlocs, n int, seed uint64) ([]LocDecl, []Event) {
	decls := make([]LocDecl, nlocs)
	for i := range decls {
		k := prog.NonAtomic
		switch i % 4 {
		case 1:
			k = prog.Atomic
		case 3:
			k = prog.ReleaseAcquire
		}
		decls[i] = LocDecl{Name: prog.Loc(fmt.Sprintf("l%d", i)), Kind: k}
	}
	x := seed
	rnd := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	lastTime := make([]int64, nlocs)
	events := make([]Event, 0, n)
	for len(events) < n {
		t, l := rnd(nthreads), rnd(nlocs)
		e := Event{Thread: int32(t), Loc: int32(l)}
		switch decls[l].Kind {
		case prog.Atomic:
			e.Kind = ReadAT
			if rnd(2) == 0 {
				e.Kind = WriteAT
			}
		case prog.ReleaseAcquire:
			if rnd(2) == 0 && lastTime[l] > 0 {
				e.Kind = ReadRA
				// Read anywhere in history: latest, stale, maybe GC'd.
				e.Time = ts.FromInt(1 + int64(rnd(int(lastTime[l]))))
			} else {
				lastTime[l]++
				e.Kind = WriteRA
				e.Time = ts.FromInt(lastTime[l])
			}
		default:
			e.Kind = ReadNA
			if rnd(3) == 0 {
				e.Kind = WriteNA
			}
		}
		events = append(events, e)
	}
	return decls, events
}

// TestShardedHonoursConfig: every monitor Open builds, *including* the
// single-shard Monitor, must honour a configured GC interval exactly as
// a sequential New+SetGCInterval+Step run does. Reports alone cannot
// detect the bug (they are interval-invariant by design), so the test
// compares the RA retention statistics, which differ per interval.
func TestShardedHonoursConfig(t *testing.T) {
	decls, events := raWorkload(5, 12, 40_000, 17)
	for _, interval := range []uint64{16, 0 /* default */} {
		ref := New(5, decls)
		if interval > 0 {
			ref.SetGCInterval(interval)
		}
		for _, e := range events {
			ref.Step(e)
		}
		for _, shards := range []int{1, 2, 4} {
			p := Open(Header{Threads: 5, Decls: decls}, PipelineConfig{Shards: shards, GCInterval: interval})
			p.StepBatch(events)
			got := p.Finish()
			if !race.ReportsEqual(got, ref.Reports()) {
				t.Fatalf("interval=%d shards=%d: reports diverged", interval, shards)
			}
			if p.RAStats() != ref.RAStats() {
				t.Fatalf("interval=%d shards=%d: RA stats %+v, want %+v (GC interval not honoured)",
					interval, shards, p.RAStats(), ref.RAStats())
			}
		}
	}
}

// TestEpochEscalation pins the representation transitions: single-thread
// histories stay in the epoch form, a second concurrent accessor
// escalates, and a frontier-passed handoff does not.
func TestEpochEscalation(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "A", Kind: prog.Atomic}}
	m := New(2, decls)
	m.SetGCInterval(1) // refresh the frontier every event
	// Same-thread burst: epoch, no vectors.
	for i := 0; i < 100; i++ {
		m.Step(Event{Thread: 0, Loc: 0, Kind: WriteNA})
	}
	if ls := &m.ck.na[0]; ls.wT != 0 || ls.writes != nil {
		t.Fatalf("single-thread history escalated: wT=%d", ls.wT)
	}
	// Ordered handoff via the atomic: frontier passes T0's epoch, so T1's
	// write overwrites it in place.
	m.Step(Event{Thread: 0, Loc: 1, Kind: WriteAT})
	m.Step(Event{Thread: 1, Loc: 1, Kind: WriteAT}) // joins T0's clock
	m.Step(Event{Thread: 1, Loc: 1, Kind: WriteAT}) // next event: GC refreshes frontier
	m.Step(Event{Thread: 1, Loc: 0, Kind: WriteNA})
	if ls := &m.ck.na[0]; ls.wT != 1 || ls.writes != nil {
		t.Fatalf("frontier-passed handoff escalated: wT=%d", ls.wT)
	}
	if m.RaceCount() != 0 {
		t.Fatalf("ordered handoff reported races: %v", m.Reports())
	}
	// A genuinely concurrent write escalates and reports.
	m2 := New(2, decls)
	m2.Step(Event{Thread: 0, Loc: 0, Kind: WriteNA})
	m2.Step(Event{Thread: 1, Loc: 0, Kind: WriteNA})
	if ls := &m2.ck.na[0]; ls.wT != escalated || ls.writes == nil {
		t.Fatalf("concurrent write did not escalate: wT=%d", ls.wT)
	}
	if m2.RaceCount() != 1 {
		t.Fatalf("concurrent writes: %d races, want 1", m2.RaceCount())
	}
}

// BenchmarkMonitorBursty measures single-core monitoring throughput on a
// bursty synthetic stream.
func BenchmarkMonitorBursty(b *testing.B) {
	decls, events := burstyWorkload(8, 64, 1_000_000, 97)
	benchMonitor(b, func() *Monitor { return New(8, decls) }, events)
}

// BenchmarkMonitorRAHeavy measures the release-acquire hot path: message
// publication (clock copy into the location's flat store), reads-from
// lookups and joins, and the windowed GC sweeps.
func BenchmarkMonitorRAHeavy(b *testing.B) {
	decls, events := raWorkload(8, 16, 1_000_000, 23)
	benchMonitor(b, func() *Monitor { return New(8, decls) }, events)
}

// benchMonitor steps events through a fresh monitor per op, built
// outside the timed region, and reports the throughput in ev/s.
func benchMonitor(b *testing.B, fresh func() *Monitor, events []Event) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := fresh()
		b.StartTimer()
		for _, e := range events {
			m.Step(e)
		}
	}
	reportEventRate(b, len(events))
}

// reportEventRate reports a bench's throughput as events per second,
// given the events one op processes.
func reportEventRate(b *testing.B, eventsPerOp int) {
	b.ReportMetric(float64(eventsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "ev/s")
}

// burstyWorkload synthesises a stream with long same-thread bursts and a
// sprinkle of atomic synchronisation — the monitor's target workload.
func burstyWorkload(nthreads, nlocs, n int, seed uint64) ([]LocDecl, []Event) {
	decls := make([]LocDecl, nlocs)
	for i := range decls {
		k := prog.NonAtomic
		if i%8 == 7 {
			k = prog.Atomic
		}
		decls[i] = LocDecl{Name: prog.Loc(fmt.Sprintf("l%d", i)), Kind: k}
	}
	x := seed
	rnd := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	events := make([]Event, 0, n)
	for len(events) < n {
		t := rnd(nthreads)
		span := 32 + rnd(64)
		for s := 0; s < span && len(events) < n; s++ {
			l := rnd(nlocs)
			var k Kind
			if decls[l].Kind == prog.Atomic {
				k = ReadAT
				if rnd(4) == 0 {
					k = WriteAT
				}
			} else {
				k = ReadNA
				if rnd(3) == 0 {
					k = WriteNA
				}
			}
			events = append(events, Event{Thread: int32(t), Loc: int32(l), Kind: k})
		}
	}
	return decls, events
}
