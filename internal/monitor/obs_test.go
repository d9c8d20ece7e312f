package monitor

// Tests for the telemetry layer (obs.go): published values must agree
// with the typed accessors, stats reads must be race-free against a
// live pipeline (run under `go test -race`; CI does), and the
// instrumentation must never perturb reports or snapshot bytes.

import (
	"bytes"
	"maps"
	"strings"
	"sync"
	"testing"

	"localdrf/internal/race"
)

// kindCounterNames mirrors kindNames for reading snapshots back.
var kindCounterNames = []string{
	"read_na", "write_na", "read_at", "write_at", "read_ra", "write_ra", "halt",
}

func TestMonitorStats(t *testing.T) {
	decls, events := raWorkload(6, 16, 50_000, 17)
	m := New(6, decls)
	m.SetGCInterval(512)
	m.StepBatch(events)
	s := m.Stats()

	if got := s.Counter("monitor.events"); got != uint64(len(events)) {
		t.Fatalf("monitor.events = %d, want %d", got, len(events))
	}
	var kindSum uint64
	for _, k := range kindCounterNames {
		kindSum += s.Counter("monitor.events." + k)
	}
	if kindSum != uint64(len(events)) {
		t.Fatalf("per-kind counters sum to %d, want %d", kindSum, len(events))
	}
	if got := s.Counter("monitor.races"); got != uint64(m.RaceCount()) {
		t.Fatalf("monitor.races = %d, want %d", got, m.RaceCount())
	}
	sweeps := s.Counter("monitor.gc.sweeps")
	if sweeps == 0 {
		t.Fatalf("no GC sweeps recorded over %d events at interval 512", len(events))
	}
	if p, u := s.Counter("monitor.gc.sweeps_productive"), s.Counter("monitor.gc.sweeps_unproductive"); p+u != sweeps {
		t.Fatalf("productive %d + unproductive %d != sweeps %d", p, u, sweeps)
	}
	rs := m.RAStats()
	if s.Gauge("monitor.ra.live") != int64(rs.Live) ||
		s.Gauge("monitor.ra.peak") != int64(rs.Peak) ||
		s.Counter("monitor.ra.collected") != rs.Collected {
		t.Fatalf("RA cells (%d/%d/%d) disagree with RAStats %+v",
			s.Gauge("monitor.ra.live"), s.Gauge("monitor.ra.peak"), s.Counter("monitor.ra.collected"), rs)
	}
	if live := s.Gauge("monitor.escalated_vectors"); s.Counter("monitor.escalations")-s.Counter("monitor.demotions") != uint64(live) {
		t.Fatalf("escalations %d - demotions %d != live %d",
			s.Counter("monitor.escalations"), s.Counter("monitor.demotions"), live)
	}
	if got := s.Gauge("monitor.gc.interval"); got != 512 {
		t.Fatalf("monitor.gc.interval = %d, want 512", got)
	}
}

func TestPipelineStats(t *testing.T) {
	decls, events := raWorkload(6, 16, 60_000, 23)
	var naCount uint64
	for _, e := range events {
		if e.Kind == ReadNA || e.Kind == WriteNA {
			naCount++
		}
	}
	p := NewPipeline(6, decls, PipelineConfig{Shards: 4, BatchSize: 256, GCInterval: 128})
	p.StepBatch(events)
	s := p.Stats()

	if got := s.Counter("monitor.events"); got != uint64(len(events)) {
		t.Fatalf("monitor.events = %d, want %d", got, len(events))
	}
	if got := s.Counter("pipeline.routed_records"); got != naCount {
		t.Fatalf("pipeline.routed_records = %d, want %d", got, naCount)
	}
	var backSum uint64
	for _, v := range s.Vectors["pipeline.backend_records"] {
		backSum += v
	}
	if backSum != naCount {
		t.Fatalf("backend_records sum = %d, want %d (vec %v)", backSum, naCount, s.Vectors["pipeline.backend_records"])
	}
	// Stats quiesced, so every enqueued record was flushed: the batch
	// histogram's mass is exactly the record total.
	bh := s.Histograms["pipeline.batch_records"]
	wantRecs := naCount + s.Counter("pipeline.delta_records") + s.Counter("pipeline.min_records")
	if bh.Count == 0 || bh.Sum != wantRecs {
		t.Fatalf("batch hist count=%d sum=%d, want sum %d", bh.Count, bh.Sum, wantRecs)
	}
	if s.Counter("pipeline.quiesces") == 0 {
		t.Fatalf("no quiesces recorded (Stats itself quiesces)")
	}
	loads := p.BackendLoads()
	var loadSum uint64
	for _, v := range loads {
		loadSum += v
	}
	if loadSum != naCount {
		t.Fatalf("BackendLoads sum = %d, want %d", loadSum, naCount)
	}

	p.Finish()
	s = p.Stats()
	if got := s.Counter("monitor.races"); got != uint64(p.RaceCount()) {
		t.Fatalf("monitor.races = %d after Finish, want %d", got, p.RaceCount())
	}
	var raceSum uint64
	for _, v := range s.Vectors["pipeline.backend_races"] {
		raceSum += v
	}
	if raceSum != uint64(p.RaceCount()) {
		t.Fatalf("backend_races sum = %d, want %d", raceSum, p.RaceCount())
	}
}

// TestEnginesPublishSameTelemetry: after Finish, a pipeline at 2 and 4
// shards publishes every monitor.* and predict.* counter and gauge with
// the value the sequential monitor publishes for the same stream, under
// each predicate — the two engines share one front-end, and the
// pipeline aggregates its back-ends into the same cells.
func TestEnginesPublishSameTelemetry(t *testing.T) {
	decls, events := raWorkload(6, 16, 60_000, 23)
	for _, pc := range []struct {
		pred Predicate
		k    int
	}{{PredHB, 0}, {PredSyncP, 0}, {PredShort, 64}} {
		m := New(6, decls)
		m.SetPredicate(pc.pred, pc.k)
		m.SetGCInterval(256)
		m.StepBatch(events)
		m.Finish()
		want := m.Stats()
		if want.Counter("monitor.races") == 0 || want.Counter("monitor.gc.sweeps") == 0 {
			t.Fatalf("%v: the workload must race and sweep", pc.pred)
		}
		for _, shards := range []int{2, 4} {
			p := NewPipeline(6, decls, PipelineConfig{Shards: shards, GCInterval: 256, Predicate: pc.pred, WindowK: pc.k})
			p.StepBatch(events)
			p.Finish()
			got := p.Stats()
			for _, prefix := range []string{"monitor.", "predict."} {
				if w, g := filterKeys(want.Counters, prefix), filterKeys(got.Counters, prefix); !maps.Equal(w, g) {
					t.Errorf("%v, %d shards: %s* counters\npipeline   %v\nsequential %v", pc.pred, shards, prefix, g, w)
				}
				if w, g := filterKeys(want.Gauges, prefix), filterKeys(got.Gauges, prefix); !maps.Equal(w, g) {
					t.Errorf("%v, %d shards: %s* gauges\npipeline   %v\nsequential %v", pc.pred, shards, prefix, g, w)
				}
			}
		}
	}
}

// filterKeys returns the entries of m whose names start with prefix.
func filterKeys[V comparable](m map[string]V, prefix string) map[string]V {
	out := map[string]V{}
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

// TestStatsReadsRaceFreeUnderIngest hammers Obs().Snapshot() from
// reader goroutines while the feeder ingests and interleaves exact
// Stats() calls — the /stats endpoint's access pattern. Meaningful
// under -race; also asserts reader-observed counters are monotonic and
// that the reports are unperturbed.
func TestStatsReadsRaceFreeUnderIngest(t *testing.T) {
	decls, events := raWorkload(6, 16, 120_000, 41)
	ref := New(6, decls)
	ref.StepBatch(events)
	want := ref.Reports()

	p := NewPipeline(6, decls, PipelineConfig{Shards: 4, BatchSize: 64, GCInterval: 64})
	reg := p.Obs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := reg.Snapshot()
				if ev := s.Counter("monitor.events"); ev < prev {
					t.Errorf("monitor.events went backwards: %d after %d", ev, prev)
					return
				} else {
					prev = ev
				}
			}
		}()
	}
	for i := 0; i < len(events); {
		n := 1 + (i*13)%4999
		if i+n > len(events) {
			n = len(events) - i
		}
		p.StepBatch(events[i : i+n])
		i += n
		if i%30_000 < n {
			if s := p.Stats(); s.Counter("monitor.events") != uint64(i) {
				t.Fatalf("mid-stream Stats events = %d, want %d", s.Counter("monitor.events"), i)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := p.Finish(); !race.ReportsEqual(got, want) {
		t.Fatalf("reports perturbed by concurrent stats reads:\ngot  %v\nwant %v", got, want)
	}
}

// TestSnapshotMetrics: the codec histograms record exact sizes.
func TestSnapshotMetrics(t *testing.T) {
	decls, events := raWorkload(5, 12, 20_000, 7)
	m := New(5, decls)
	m.StepBatch(events)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if h := s.Histograms["monitor.snapshot.encode_bytes"]; h.Count != 1 || h.Sum != uint64(buf.Len()) {
		t.Fatalf("encode_bytes count=%d sum=%d, want 1/%d", h.Count, h.Sum, buf.Len())
	}
	if h := s.Histograms["monitor.snapshot.encode_ns"]; h.Count != 1 {
		t.Fatalf("encode_ns count=%d, want 1", h.Count)
	}
	m2, err := restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2 := m2.Stats()
	if h := s2.Histograms["monitor.snapshot.decode_bytes"]; h.Count != 1 || h.Sum != uint64(buf.Len()) {
		t.Fatalf("decode_bytes count=%d sum=%d, want 1/%d", h.Count, h.Sum, buf.Len())
	}
	if !race.ReportsEqual(m2.Reports(), m.Reports()) {
		t.Fatalf("restored reports diverged")
	}
}

// TestSnapshotDecodeBytesExact: decode_bytes records the bytes the
// snapshot occupies, not what the decoder's buffered reader pulled in
// from a stream that goes on past the end byte.
func TestSnapshotDecodeBytesExact(t *testing.T) {
	decls, events := raWorkload(5, 12, 20_000, 7)
	m := New(5, decls)
	m.StepBatch(events)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Len()
	buf.Write(make([]byte, 64<<10))
	m2, err := restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h := m2.Stats().Histograms["monitor.snapshot.decode_bytes"]; h.Count != 1 || h.Sum != uint64(snap) {
		t.Fatalf("decode_bytes count=%d sum=%d, want 1/%d", h.Count, h.Sum, snap)
	}
}
