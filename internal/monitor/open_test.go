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
