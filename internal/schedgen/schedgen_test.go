package schedgen

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
)

func smallCfg() progsynth.ScaledConfig {
	return progsynth.ScaledConfig{
		Threads:    4,
		Iters:      50,
		OpsPerIter: 4,
		NonAtomic:  6,
		Atomics:    2,
		RAs:        2,
		WritePct:   40,
		SyncPct:    25,
		MaxConst:   4,
	}
}

// TestDeterministic: equal (program, options) produce equal streams.
func TestDeterministic(t *testing.T) {
	p := progsynth.Scaled(1, smallCfg())
	tb := monitor.NewTable(p)
	for _, pol := range []Policy{Fair, Unfair, Bursty} {
		opt := Options{Policy: pol, Seed: 42, StaleReadPct: 20}
		a, doneA, err := Generate(p, tb, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, doneB, err := Generate(p, tb, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if doneA != doneB || len(a) != len(b) {
			t.Fatalf("%v: nondeterministic shape", pol)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: streams diverge at event %d: %v vs %v", pol, i, a[i], b[i])
			}
		}
	}
}

// TestRunsToCompletion: a terminating program generates exactly
// Threads × Iters × EventsPerIteration events and reports completion.
func TestRunsToCompletion(t *testing.T) {
	cfg := smallCfg()
	p := progsynth.Scaled(2, cfg)
	tb := monitor.NewTable(p)
	events, done, err := Generate(p, tb, Options{Policy: Fair, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("terminating program did not complete")
	}
	want := cfg.Threads * cfg.Iters * cfg.EventsPerIteration()
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
}

// TestMaxEventsStops: MaxEvents truncates the schedule.
func TestMaxEventsStops(t *testing.T) {
	p := progsynth.Scaled(3, smallCfg())
	tb := monitor.NewTable(p)
	events, done, err := Generate(p, tb, Options{Policy: Bursty, Seed: 9, MaxEvents: 123}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done || len(events) != 123 {
		t.Fatalf("got %d events (done=%v), want 123 truncated", len(events), done)
	}
}

// TestMonitorMatchesOracleOnStreams closes the loop on schedgen's own
// output: for short streams under every policy, the streaming monitor and
// the exhaustive race.Races oracle (run on the synthesised bare
// transitions) must agree exactly. Longer streams are covered by the
// monitor's internal consistency tests; the oracle is O(n³).
func TestMonitorMatchesOracleOnStreams(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := progsynth.Scaled(seed, smallCfg())
		tb := monitor.NewTable(p)
		for _, pol := range []Policy{Fair, Unfair, Bursty} {
			events, _, err := Generate(p, tb, Options{
				Policy: pol, Seed: seed * 31, MaxEvents: 400, StaleReadPct: 25,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := monitor.New(tb.Threads(), tb.Decls())
			for _, e := range events {
				m.Step(e)
			}
			got := m.Reports()
			want := race.Races(monitor.Transitions(events, tb.Decls()))
			if len(got) != len(want) {
				t.Fatalf("seed %d %v: monitor %v, oracle %v", seed, pol, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %v: monitor %v, oracle %v", seed, pol, got, want)
				}
			}
		}
	}
}

// TestStreamMatchesGenerate: the push generator emits exactly the events
// Generate materialises — same order, same truncation semantics.
func TestStreamMatchesGenerate(t *testing.T) {
	p := progsynth.Scaled(5, smallCfg())
	tb := monitor.NewTable(p)
	for _, max := range []int{0, 123} {
		opt := Options{Policy: Bursty, Seed: 13, MaxEvents: max, StaleReadPct: 20}
		want, wantDone, err := Generate(p, tb, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []monitor.Event
		gotDone, err := Stream(p, tb, opt, func(e monitor.Event) error {
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if gotDone != wantDone || len(got) != len(want) {
			t.Fatalf("max=%d: stream shape (%d, %v) vs generate (%d, %v)",
				max, len(got), gotDone, len(want), wantDone)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("max=%d: streams diverge at event %d", max, i)
			}
		}
	}
}

// TestEncodeRoundTrip: generate-and-encode (never materialising the
// slice), then decode-and-monitor — the reports must equal monitoring
// the materialised stream directly, in both wire formats.
func TestEncodeRoundTrip(t *testing.T) {
	p := progsynth.Scaled(8, smallCfg())
	tb := monitor.NewTable(p)
	opt := Options{Policy: Unfair, Seed: 21, MaxEvents: 4_000, StaleReadPct: 25}
	events, _, err := Generate(p, tb, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := monitor.New(tb.Threads(), tb.Decls())
	for _, e := range events {
		m.Step(e)
	}
	want := m.Reports()
	for _, format := range []monitor.Format{monitor.BinaryV2, monitor.Text} {
		var buf bytes.Buffer
		n, _, err := Encode(&buf, p, tb, opt, format)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(events) {
			t.Fatalf("%v: encoded %d events, generated %d", format, n, len(events))
		}
		got, err := monitor.ReadRaces(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !race.ReportsEqual(got, want) {
			t.Fatalf("%v: decoded reports %v, want %v", format, got, want)
		}
	}
}

// TestBurstiness sanity-checks that the bursty policy actually produces
// long same-thread runs compared to fair scheduling.
func TestBurstiness(t *testing.T) {
	p := progsynth.Scaled(4, smallCfg())
	tb := monitor.NewTable(p)
	switches := func(events []monitor.Event) int {
		n := 0
		for i := 1; i < len(events); i++ {
			if events[i].Thread != events[i-1].Thread {
				n++
			}
		}
		return n
	}
	fair, _, err := Generate(p, tb, Options{Policy: Fair, Seed: 5, MaxEvents: 3000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bursty, _, err := Generate(p, tb, Options{Policy: Bursty, Seed: 5, MaxEvents: 3000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if switches(bursty)*4 > switches(fair) {
		t.Fatalf("bursty not bursty enough: %d switches vs fair %d", switches(bursty), switches(fair))
	}
}

// TestOptionsRejected: an unknown policy name and a stale-read
// percentage outside 0..100 are errors, on every entry point, before any
// event is emitted; the ends of the range are accepted.
func TestOptionsRejected(t *testing.T) {
	var pol Policy
	if err := pol.Set("greedy"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("Policy.Set(greedy): err = %v, want unknown policy", err)
	}
	p := progsynth.Scaled(4, smallCfg())
	tb := monitor.NewTable(p)
	for _, pct := range []int{-20, -1, 101, 150} {
		opt := Options{Policy: Bursty, Seed: 5, MaxEvents: 100, StaleReadPct: pct}
		want := fmt.Sprintf("stale-read percentage %d outside 0..100", pct)
		if ev, _, err := Generate(p, tb, opt, nil); err == nil || !strings.Contains(err.Error(), want) || len(ev) != 0 {
			t.Fatalf("Generate stale %d: %d events, err = %v, want %q", pct, len(ev), err, want)
		}
		var buf bytes.Buffer
		if n, _, err := Encode(&buf, p, tb, opt, monitor.BinaryV2); err == nil || !strings.Contains(err.Error(), want) || n != 0 {
			t.Fatalf("Encode stale %d: %d events, err = %v, want %q", pct, n, err, want)
		}
	}
	for _, pct := range []int{0, 100} {
		opt := Options{Policy: Bursty, Seed: 5, MaxEvents: 100, StaleReadPct: pct}
		if ev, _, err := Generate(p, tb, opt, nil); err != nil || len(ev) != 100 {
			t.Fatalf("Generate stale %d: %d events, err = %v", pct, len(ev), err)
		}
	}
}

// TestStaleReadsAppear: with StaleReadPct set, some reads return
// non-latest entries (observable as RA reads of non-latest timestamps).
func TestStaleReadsAppear(t *testing.T) {
	cfg := smallCfg()
	cfg.SyncPct = 60 // plenty of RA traffic
	p := progsynth.Scaled(6, cfg)
	tb := monitor.NewTable(p)
	events, _, err := Generate(p, tb, Options{Policy: Fair, Seed: 11, MaxEvents: 5000, StaleReadPct: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastWrite := map[int32]monitor.Event{}
	stale := 0
	for _, e := range events {
		switch e.Kind {
		case monitor.WriteRA:
			lastWrite[e.Loc] = e
		case monitor.ReadRA:
			if w, ok := lastWrite[e.Loc]; ok && !e.Time.Equal(w.Time) {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("no stale RA reads observed")
	}
}

// BenchmarkGenerateBursty measures schedule generation throughput (the
// producer side of the racemon pipeline).
func BenchmarkGenerateBursty(b *testing.B) {
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(1_000_000)
	p := progsynth.Scaled(1, cfg)
	tb := monitor.NewTable(p)
	var buf []monitor.Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, _, err = Generate(p, tb, Options{Policy: Bursty, Seed: 3, MaxEvents: 1_000_000, StaleReadPct: 10}, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitHalts: with EmitHalts a completed run carries exactly one halt
// per thread (each after that thread's last access), the monitor's
// report set is unchanged, and the non-halt prefix ordering is identical
// to the halt-free stream.
func TestEmitHalts(t *testing.T) {
	cfg := smallCfg()
	p := progsynth.Scaled(3, cfg)
	tb := monitor.NewTable(p)
	opt := Options{Policy: Unfair, Seed: 9, StaleReadPct: 20}
	plain, doneP, err := Generate(p, tb, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.EmitHalts = true
	halted, doneH, err := Generate(p, tb, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !doneP || !doneH {
		t.Fatal("terminating program did not complete")
	}
	if len(halted) != len(plain)+cfg.Threads {
		t.Fatalf("halted stream has %d events, want %d + %d halts", len(halted), len(plain), cfg.Threads)
	}
	seen := make([]bool, cfg.Threads)
	i := 0
	for _, e := range halted {
		if e.Kind == monitor.KindHalt {
			if seen[e.Thread] {
				t.Fatalf("thread %d halted twice", e.Thread)
			}
			seen[e.Thread] = true
			continue
		}
		if seen[e.Thread] {
			t.Fatalf("thread %d has events after its halt", e.Thread)
		}
		if e != plain[i] {
			t.Fatalf("non-halt event %d differs: %v vs %v", i, e, plain[i])
		}
		i++
	}
	if i != len(plain) {
		t.Fatalf("halted stream carries %d non-halt events, want %d", i, len(plain))
	}
	mp := tb.NewMonitor()
	mp.StepBatch(plain)
	mh := tb.NewMonitor()
	mh.StepBatch(halted)
	if !race.ReportsEqual(mp.Reports(), mh.Reports()) {
		t.Fatal("halt events changed the monitor's report set")
	}
}

// TestStreamBatchMatchesStream: batched delivery carries exactly the
// per-event stream, at batch sizes that do and do not divide the length.
func TestStreamBatchMatchesStream(t *testing.T) {
	p := progsynth.Scaled(5, smallCfg())
	tb := monitor.NewTable(p)
	opt := Options{Policy: Bursty, Seed: 11, StaleReadPct: 10, EmitHalts: true}
	var want []monitor.Event
	doneW, err := Stream(p, tb, opt, func(e monitor.Event) error {
		want = append(want, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 4096} {
		var got []monitor.Event
		batches := 0
		doneB, err := StreamBatch(p, tb, opt, batch, func(evs []monitor.Event) error {
			got = append(got, evs...)
			batches++
			if len(evs) > batch {
				t.Fatalf("batch of %d exceeds requested size %d", len(evs), batch)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if doneB != doneW || len(got) != len(want) {
			t.Fatalf("batch=%d: shape mismatch (%d events vs %d, done %v vs %v)",
				batch, len(got), len(want), doneB, doneW)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: event %d differs", batch, i)
			}
		}
		if wantBatches := (len(want) + batch - 1) / batch; batches != wantBatches {
			t.Fatalf("batch=%d: %d callbacks, want %d", batch, batches, wantBatches)
		}
	}
}

// TestWireV2BytesPerEvent is the wire-format compression bar: on the
// schedgen smoke stream (the CI racemon workload), the binary encoding
// stays within maxV2BytesPerEvent, and it decodes to the same report set
// as the text encoding of the same stream.
func TestWireV2BytesPerEvent(t *testing.T) {
	// The encoding is deterministic; this is its measured size on the
	// stream below (532044 bytes for 250000 events), so any growth fails.
	const maxV2BytesPerEvent = 2.13
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(250_000)
	p := progsynth.Scaled(1, cfg)
	tb := monitor.NewTable(p)
	opt := Options{Policy: Bursty, Seed: 1, MaxEvents: 250_000, StaleReadPct: 10}
	var txt, bin bytes.Buffer
	if _, _, err := Encode(&txt, p, tb, opt, monitor.Text); err != nil {
		t.Fatal(err)
	}
	n, _, err := Encode(&bin, p, tb, opt, monitor.BinaryV2)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(bin.Len()) / float64(n)
	t.Logf("binary=%d bytes for %d events, %.3f B/event", bin.Len(), n, perEvent)
	if perEvent > maxV2BytesPerEvent {
		t.Fatalf("binary encoding takes %.3f B/event, want ≤ %.2f", perEvent, maxV2BytesPerEvent)
	}
	rt, err := monitor.ReadRaces(bytes.NewReader(txt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := monitor.ReadRaces(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(rt, rb) {
		t.Fatal("text and binary decoded streams report different races")
	}
}

// TestLocSkew: skewed streams are deterministic, leave the unskewed
// stream byte-identical when disabled, concentrate nonatomic traffic on
// the low-rank locations, and keep monitor/oracle agreement.
func TestLocSkew(t *testing.T) {
	cfg := smallCfg()
	cfg.NonAtomic = 12
	p := progsynth.Scaled(7, cfg)
	tb := monitor.NewTable(p)
	base := Options{Policy: Fair, Seed: 33, MaxEvents: 8000, StaleReadPct: 20}

	plain, _, err := Generate(p, tb, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.LocSkew = 0
	again, _, err := Generate(p, tb, zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(plain) {
		t.Fatalf("LocSkew=0 changed the stream length: %d vs %d", len(again), len(plain))
	}
	for i := range plain {
		if again[i] != plain[i] {
			t.Fatalf("LocSkew=0 changed the stream at event %d", i)
		}
	}

	skew := base
	skew.LocSkew = 1.4
	a, _, err := Generate(p, tb, skew, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(p, tb, skew, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("skewed stream nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("skewed streams diverge at event %d", i)
		}
	}

	// Concentration: the hottest nonatomic location must carry well over
	// the uniform share of nonatomic traffic.
	decls := tb.Decls()
	counts := map[int32]int{}
	naTotal, naLocs := 0, 0
	for _, d := range decls {
		if d.Kind == prog.NonAtomic {
			naLocs++
		}
	}
	for _, e := range a {
		if e.Kind == monitor.ReadNA || e.Kind == monitor.WriteNA {
			if decls[e.Loc].Kind != prog.NonAtomic {
				t.Fatalf("nonatomic event redirected to non-NA location %d", e.Loc)
			}
			counts[e.Loc]++
			naTotal++
		}
	}
	hot := 0
	for _, n := range counts {
		if n > hot {
			hot = n
		}
	}
	if hot*naLocs < 2*naTotal {
		t.Fatalf("hottest location carries %d/%d NA events over %d locations — no skew visible",
			hot, naTotal, naLocs)
	}

	m := tb.NewMonitor()
	m.StepBatch(a[:400])
	want := race.Races(monitor.Transitions(a[:400], decls))
	if !race.ReportsEqual(m.Reports(), want) {
		t.Fatalf("skewed stream: monitor %v, oracle %v", m.Reports(), want)
	}
}

// TestSkewIndexBoundary is the property test for the Zipf CDF lookup:
// across a sweep of skew exponents and table sizes, skewIndex must stay
// in range and order-correct for adversarial draws — exactly 1.0,
// 1.0 minus one ulp, every CDF entry and its neighbourhoods — and the
// hazard the clamp guards (a normalised CDF whose last entry rounds
// below 1.0, pushing the binary search past the end) must actually
// occur somewhere in the sweep.
func TestSkewIndexBoundary(t *testing.T) {
	for _, s := range []float64{0.2, 0.7, 1.0, 1.3, 1.5, 2.0, 3.7} {
		for _, n := range []int{2, 3, 5, 7, 12, 64, 257} {
			cdf := make([]float64, n)
			sum := 0.0
			for i := range cdf {
				sum += 1 / math.Pow(float64(i+1), s)
				cdf[i] = sum
			}
			for i := range cdf {
				cdf[i] /= sum
			}
			draws := []float64{0, math.Nextafter(1, 0), 1.0}
			for _, c := range cdf {
				draws = append(draws, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for _, u := range draws {
				i := skewIndex(cdf, u)
				if i < 0 || i >= n {
					t.Fatalf("s=%v n=%d u=%v: index %d out of range", s, n, u, i)
				}
				// Order-correctness: the chosen rank's CDF covers u, and
				// no earlier rank does (except at the clamped top).
				if cdf[i] < u && i != n-1 {
					t.Fatalf("s=%v n=%d u=%v: rank %d has cdf %v < u", s, n, u, i, cdf[i])
				}
				if i > 0 && cdf[i-1] >= u {
					t.Fatalf("s=%v n=%d u=%v: earlier rank %d already covers u", s, n, u, i-1)
				}
			}
		}
	}
	// The generator's own normalisation ends on an exact x/x division,
	// so ITS tail is exactly 1.0 — but the helper must also survive a
	// CDF whose tail rounded below 1.0 (any normalisation that does not
	// end on a self-division can produce one): a draw at or above such
	// a tail lands past the binary search and must clamp to the last
	// rank instead of indexing out of range.
	tail := []float64{0.5, 0.9, math.Nextafter(1, 0)}
	for _, u := range []float64{math.Nextafter(1, 0), 1.0} {
		if i := skewIndex(tail, u); i != len(tail)-1 {
			t.Fatalf("rounded-tail CDF, u=%v: rank %d, want %d", u, i, len(tail)-1)
		}
	}
}
