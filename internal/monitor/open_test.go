package monitor

import (
	"bytes"
	"testing"

	"localdrf/internal/race"
)

// stepAll drains tr into m with the NextBatch → StepBatch loop the
// drivers run.
func stepAll(tr *TraceReader, m *Monitor) error {
	var buf []Event
	for {
		batch, ok, err := tr.NextBatch(buf[:0])
		if err != nil || !ok {
			return err
		}
		m.StepBatch(batch)
		buf = batch
	}
}

// TestResumeAt: a checkpoint resumes by skipping the monitored prefix
// by count, in every wire format, into a
// monitor at a different shard count; a trace of another shape, or one
// shorter than the monitored prefix, is refused.
func TestResumeAt(t *testing.T) {
	decls, events := raWorkload(5, 12, 10_000, 17)
	hdr := Header{Threads: 5, Decls: decls}
	const k = 4_321
	want := openRaces(5, decls, events, PipelineConfig{})
	m := New(5, decls)
	m.StepBatch(events[:k])
	var snap bytes.Buffer
	if err := m.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	read := func() *Snapshot {
		s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reader := func(hdr Header, events []Event, format Format) *TraceReader {
		tr, err := NewTraceReader(bytes.NewReader(encodeStream(t, hdr, events, format)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	for _, format := range []Format{BinaryV2, Text} {
		tr := reader(hdr, events, format)
		s := read()
		if err := tr.ResumeAt(s); err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		sk := s.Open(PipelineConfig{Shards: 2})
		if err := stepAll(tr, sk); err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if got := sk.Finish(); !race.ReportsEqual(got, want) {
			t.Fatalf("%v: count-skip resume diverged\ngot  %v\nwant %v", format, got, want)
		}
		if sk.Events() != uint64(len(events)) {
			t.Fatalf("%v: resumed monitor saw %d events, want %d", format, sk.Events(), len(events))
		}
	}
	if err := reader(hdr, events[:k-1], BinaryV2).ResumeAt(read()); err == nil {
		t.Fatal("resumed a trace that ends inside the monitored prefix")
	}
	if err := reader(Header{Threads: 6, Decls: decls}, events, BinaryV2).ResumeAt(read()); err == nil {
		t.Fatal("resumed a trace with a different header")
	}
}

// TestOpenShortSequential: under short:k the front-end's window checks
// every nonatomic access, so Open and Snapshot.Open run the monitor
// without back-ends at any shard count, with the reports and snapshot
// bytes of the 1-shard monitor.
func TestOpenShortSequential(t *testing.T) {
	decls, events := raWorkload(5, 12, 10_000, 17)
	hdr := Header{Threads: 5, Decls: decls}
	cfg := func(shards int) PipelineConfig {
		return PipelineConfig{Shards: shards, Predicate: PredShort, WindowK: 64}
	}
	snap := func(m *Monitor) []byte {
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := Open(hdr, cfg(1)), Open(hdr, cfg(4))
	if four.BackendLoads() != nil {
		t.Fatalf("short:64 at 4 shards started back-ends: loads %v", four.BackendLoads())
	}
	const k = 4_321
	one.StepBatch(events[:k])
	four.StepBatch(events[:k])
	mid := snap(one)
	if !bytes.Equal(snap(four), mid) {
		t.Fatal("snapshot at 4 shards differs from the 1-shard one")
	}
	s, err := ReadSnapshot(bytes.NewReader(mid))
	if err != nil {
		t.Fatal(err)
	}
	resumed := s.Open(cfg(4))
	if resumed.BackendLoads() != nil {
		t.Fatalf("resumed short:64 at 4 shards started back-ends: loads %v", resumed.BackendLoads())
	}
	for _, m := range []*Monitor{one, four, resumed} {
		m.StepBatch(events[k:])
	}
	end := snap(one)
	want := one.Finish()
	if len(want) == 0 {
		t.Fatal("workload has no short:64 race; not a useful fixture")
	}
	for name, m := range map[string]*Monitor{"4 shards": four, "resumed at 4 shards": resumed} {
		if !bytes.Equal(snap(m), end) {
			t.Fatalf("%s: final snapshot differs from the 1-shard one", name)
		}
		if got := m.Finish(); !race.ReportsEqual(got, want) {
			t.Fatalf("%s: reports diverged\ngot  %v\nwant %v", name, got, want)
		}
	}
}
