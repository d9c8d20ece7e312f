package monitor

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// restore decodes a snapshot and takes its monitor: ReadSnapshot, then
// the hand-over behind Snapshot.Open.
func restore(r io.Reader) (*Monitor, error) {
	s, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return s.take(), nil
}

// finish runs the remaining events through a monitor and returns its
// final observable state.
func finish(m *Monitor, events []Event) ([]race.Report, RAStats, uint64) {
	m.StepBatch(events)
	return m.Reports(), m.RAStats(), m.Events()
}

// TestSnapshotRoundTrip is the core metamorphic bar at unit scale:
// run-to-k → snapshot → restore → finish must equal the unsplit run
// exactly (reports, RA stats, event count), and a snapshot taken by the
// restored monitor at the end must be byte-identical to one taken by the
// unsplit monitor — the codec is canonical and lossless.
func TestSnapshotRoundTrip(t *testing.T) {
	decls, events := raWorkload(5, 12, 40_000, 17)
	for _, interval := range []uint64{16, 0} {
		ref := New(5, decls)
		if interval > 0 {
			ref.SetGCInterval(interval)
		}
		wantReports, wantStats, wantEvents := finish(ref, events)
		if len(wantReports) == 0 {
			t.Fatal("workload produced no races; not a useful fixture")
		}
		var refSnap bytes.Buffer
		if err := ref.Snapshot(&refSnap); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 777, 20_000, 39_999, 40_000} {
			m := New(5, decls)
			if interval > 0 {
				m.SetGCInterval(interval)
			}
			m.StepBatch(events[:k])
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			restored, err := restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			got, stats, n := finish(restored, events[k:])
			if !race.ReportsEqual(got, wantReports) {
				t.Fatalf("interval=%d k=%d: reports diverged\ngot  %v\nwant %v", interval, k, got, wantReports)
			}
			if stats != wantStats {
				t.Fatalf("interval=%d k=%d: RA stats %+v, want %+v", interval, k, stats, wantStats)
			}
			if n != wantEvents {
				t.Fatalf("interval=%d k=%d: events %d, want %d", interval, k, n, wantEvents)
			}
			var endSnap bytes.Buffer
			if err := restored.Snapshot(&endSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(endSnap.Bytes(), refSnap.Bytes()) {
				t.Fatalf("interval=%d k=%d: snapshot after restore+finish is not byte-identical to the unsplit snapshot (%d vs %d bytes)",
					interval, k, endSnap.Len(), refSnap.Len())
			}
		}
	}
}

// TestSnapshotDecodeEncodeIdentity: encode(decode(snapshot)) returns the
// input bytes — no state is invented or dropped by either direction.
func TestSnapshotDecodeEncodeIdentity(t *testing.T) {
	decls, events := raWorkload(6, 16, 25_000, 29)
	m := New(6, decls)
	m.SetGCInterval(64)
	m.StepBatch(events)
	var a bytes.Buffer
	if err := m.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("decode∘encode changed the snapshot (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestSnapshotHaltedThreads: the halt set survives the round trip (the
// +∞ frontier treatment must keep holding after a resume).
func TestSnapshotHaltedThreads(t *testing.T) {
	decls, events := haltRAStream(true)
	k := len(events) / 2
	ref := New(4, decls)
	ref.SetGCInterval(64)
	wantReports, wantStats, _ := finish(ref, events)

	m := New(4, decls)
	m.SetGCInterval(64)
	m.StepBatch(events[:k])
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _ := finish(restored, events[k:])
	if !race.ReportsEqual(got, wantReports) {
		t.Fatalf("reports diverged: got %v, want %v", got, wantReports)
	}
	if stats != wantStats {
		t.Fatalf("RA stats %+v, want %+v (halt set lost?)", stats, wantStats)
	}
}

// TestPipelineSnapshotByteParity: a pipeline snapshot is byte-identical
// to the sequential monitor's at the same stream position and GC
// configuration, at any shard count and at a mid-stream quiesce — the
// property that makes cross-mode resume sound.
func TestPipelineSnapshotByteParity(t *testing.T) {
	decls, events := raWorkload(5, 12, 40_000, 17)
	for _, k := range []int{0, 12_345, 40_000} {
		seq := New(5, decls)
		seq.SetGCInterval(64)
		seq.StepBatch(events[:k])
		var want bytes.Buffer
		if err := seq.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			p := NewPipeline(5, decls, PipelineConfig{Shards: shards, GCInterval: 64})
			p.StepBatch(events[:k])
			var got bytes.Buffer
			if err := p.Snapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("k=%d shards=%d: pipeline snapshot differs from sequential (%d vs %d bytes)",
					k, shards, got.Len(), want.Len())
			}
			// The pipeline stays feedable after a snapshot: finishing the
			// stream must match the unsplit sequential run.
			p.StepBatch(events[k:])
			ref := New(5, decls)
			ref.SetGCInterval(64)
			wantReports, wantStats, _ := finish(ref, events)
			if got := p.Finish(); !race.ReportsEqual(got, wantReports) {
				t.Fatalf("k=%d shards=%d: pipeline diverged after mid-stream snapshot", k, shards)
			}
			if p.RAStats() != wantStats {
				t.Fatalf("k=%d shards=%d: RA stats %+v, want %+v", k, shards, p.RAStats(), wantStats)
			}
		}
	}
}

// TestSnapshotCrossModeResume: a sequential checkpoint resumes as a
// pipeline at any shard count (the restored per-location state must be
// routed to the owning back-end — including the degenerate single-shard
// path), and a pipeline checkpoint resumes sequentially.
func TestSnapshotCrossModeResume(t *testing.T) {
	decls, events := raWorkload(5, 12, 40_000, 17)
	k := 17_000
	ref := New(5, decls)
	ref.SetGCInterval(64)
	wantReports, wantStats, _ := finish(ref, events)

	// Sequential → pipeline, every shard count incl. the degenerate 1.
	m := New(5, decls)
	m.SetGCInterval(64)
	m.StepBatch(events[:k])
	var seqSnap bytes.Buffer
	if err := m.Snapshot(&seqSnap); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, 4, 8} {
		s, err := ReadSnapshot(bytes.NewReader(seqSnap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		p := s.take()
		p.shard(PipelineConfig{Shards: shards})
		p.StepBatch(events[k:])
		if got := p.Finish(); !race.ReportsEqual(got, wantReports) {
			t.Fatalf("shards=%d: sequential→pipeline resume diverged\ngot  %v\nwant %v", shards, got, wantReports)
		}
		if p.RAStats() != wantStats {
			t.Fatalf("shards=%d: RA stats %+v, want %+v", shards, p.RAStats(), wantStats)
		}
	}

	// Pipeline → sequential.
	p := NewPipeline(5, decls, PipelineConfig{Shards: 3, GCInterval: 64})
	p.StepBatch(events[:k])
	var plSnap bytes.Buffer
	if err := p.Snapshot(&plSnap); err != nil {
		t.Fatal(err)
	}
	p.Abort()
	restored, err := restore(bytes.NewReader(plSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _ := finish(restored, events[k:])
	if !race.ReportsEqual(got, wantReports) {
		t.Fatalf("pipeline→sequential resume diverged")
	}
	if stats != wantStats {
		t.Fatalf("pipeline→sequential RA stats %+v, want %+v", stats, wantStats)
	}
}

// encodeStream encodes a header and events in the given format.
func encodeStream(t *testing.T, hdr Header, events []Event, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, hdr, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderCheckpointResume: ingest k events from a binary trace, save
// monitor + reader continuation, then reopen the trace, ResumeAt the
// recorded offset and finish — reports and stats must equal a one-shot
// ingest. Frame offsets with mid-frame pending events, at split points
// inside and at frame boundaries.
func TestReaderCheckpointResume(t *testing.T) {
	decls, events := raWorkload(5, 12, 10_000, 17)
	hdr := Header{Threads: 5, Decls: decls}
	data := encodeStream(t, hdr, events, BinaryV2)
	want, err := ReadRaces(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	refM, err := MonitorReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 3000, 4096, 5000, 8192, 9_999, 10_000} {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		m := tr.NewMonitor()
		for i := 0; i < k; i++ {
			e, ok, err := tr.Next()
			if err != nil || !ok {
				t.Fatalf("k=%d i=%d: next: ok=%v err=%v", k, i, ok, err)
			}
			m.Step(e)
		}
		var buf bytes.Buffer
		if err := tr.Checkpoint(&buf, m); err != nil {
			t.Fatal(err)
		}
		s, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if s.rck == nil {
			t.Fatal("snapshot lost the reader continuation")
		}
		tr2, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.ResumeAt(s); err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		m2 := s.take()
		if err := stepAll(tr2, m2); err != nil {
			t.Fatalf("k=%d: feed: %v", k, err)
		}
		if got := m2.Reports(); !race.ReportsEqual(got, want) {
			t.Fatalf("k=%d: resumed ingest diverged\ngot  %v\nwant %v", k, got, want)
		}
		if m2.RAStats() != refM.RAStats() {
			t.Fatalf("k=%d: RA stats %+v, want %+v", k, m2.RAStats(), refM.RAStats())
		}
		if m2.Events() != uint64(len(events)) {
			t.Fatalf("k=%d: events %d, want %d", k, m2.Events(), len(events))
		}
	}
}

// TestReaderCheckpointMidFrameHalt is the regression bar for the
// decode-versus-delivery halt-set confusion: a v2 frame's halts are in
// the reader's halted set as soon as the FRAME is decoded, so a
// checkpoint taken before the halting thread's earlier accesses have
// been delivered carries both those accesses (Pending) and the halt
// (Halted) — which is consistent, must snapshot without error, and must
// resume to the same result as an unbroken ingest.
func TestReaderCheckpointMidFrameHalt(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}}
	hdr := Header{Threads: 3, Decls: decls}
	// One frame: t1 acts, then halts, with t0 racing around it.
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 1, Loc: 0, Kind: ReadNA},
		{Thread: 1, Kind: KindHalt},
		{Thread: 2, Loc: 0, Kind: WriteNA},
		{Thread: 2, Kind: KindHalt},
		{Thread: 0, Loc: 0, Kind: ReadNA},
	}
	data := encodeStream(t, hdr, events, BinaryV2)
	ref, err := MonitorReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Every split lands mid-frame (the whole stream is one frame), so
	// each checkpoint with k < len carries pending events — including,
	// for k ≤ 2, a pending pre-halt access of a thread whose halt is
	// already in the decoder's halted set.
	for k := 0; k <= len(events); k++ {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		m := tr.NewMonitor()
		for i := 0; i < k; i++ {
			e, ok, err := tr.Next()
			if err != nil || !ok {
				t.Fatalf("k=%d i=%d: ok=%v err=%v", k, i, ok, err)
			}
			m.Step(e)
		}
		var buf bytes.Buffer
		if err := tr.Checkpoint(&buf, m); err != nil {
			t.Fatalf("k=%d: snapshot rejected a legitimate mid-frame halt checkpoint: %v", k, err)
		}
		s, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if s.rck == nil {
			t.Fatalf("k=%d: snapshot lost the reader continuation", k)
		}
		tr2, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.ResumeAt(s); err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		m2 := s.take()
		if err := stepAll(tr2, m2); err != nil {
			t.Fatalf("k=%d: feed: %v", k, err)
		}
		if !race.ReportsEqual(m2.Reports(), ref.Reports()) || m2.Events() != ref.Events() {
			t.Fatalf("k=%d: resumed halt stream diverged: %v (%d events) vs %v (%d events)",
				k, m2.Reports(), m2.Events(), ref.Reports(), ref.Events())
		}
	}
}

// TestReaderCheckpointText: on a text trace Checkpoint writes the plain
// snapshot — the bytes Snapshot writes, with no reader section — which
// ResumeAt then resumes by count; a binary continuation cannot be
// applied to a text reader.
func TestReaderCheckpointText(t *testing.T) {
	decls, events := raWorkload(5, 12, 10_000, 17)
	hdr := Header{Threads: 5, Decls: decls}
	data := encodeStream(t, hdr, events, Text)
	want, err := ReadRaces(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 4096, 5000, 10_000} {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		m := tr.NewMonitor()
		for i := 0; i < k; i++ {
			e, ok, err := tr.Next()
			if err != nil || !ok {
				t.Fatalf("k=%d i=%d: next: ok=%v err=%v", k, i, ok, err)
			}
			m.Step(e)
		}
		var ck, plain bytes.Buffer
		if err := tr.Checkpoint(&ck, m); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := m.Snapshot(&plain); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ck.Bytes(), plain.Bytes()) {
			t.Fatalf("k=%d: text checkpoint differs from the plain snapshot (%d vs %d bytes)", k, ck.Len(), plain.Len())
		}
		s, err := ReadSnapshot(bytes.NewReader(ck.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.ResumeAt(s); err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		m2 := s.take()
		if err := stepAll(tr2, m2); err != nil {
			t.Fatalf("k=%d: feed: %v", k, err)
		}
		if !race.ReportsEqual(m2.Reports(), want) || m2.Events() != uint64(len(events)) {
			t.Fatalf("k=%d: count resume diverged", k)
		}
	}
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.resume(&readerCk{}); err == nil {
		t.Fatal("text trace accepted a binary continuation")
	}
}

// TestCheckpointCountMismatch: Checkpoint refuses, writing nothing, a
// monitor that has not consumed exactly the events the reader delivered —
// in both formats, ahead or behind — and a resumed reader counts its
// skipped prefix, so checkpointing again after ResumeAt works.
func TestCheckpointCountMismatch(t *testing.T) {
	decls, events := raWorkload(3, 6, 500, 7)
	hdr := Header{Threads: 3, Decls: decls}
	for _, format := range []Format{BinaryV2, Text} {
		data := encodeStream(t, hdr, events, format)
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		behind, ahead := tr.NewMonitor(), tr.NewMonitor()
		for i := 0; i < 100; i++ {
			e, _, err := tr.Next()
			if err != nil {
				t.Fatal(err)
			}
			ahead.Step(e)
			if i < 99 {
				behind.Step(e)
			}
		}
		ahead.Step(events[100])
		for _, sk := range []*Monitor{behind, ahead} {
			var buf bytes.Buffer
			if err := tr.Checkpoint(&buf, sk); err == nil || buf.Len() != 0 {
				t.Fatalf("%v: monitor at %d events, reader at 100: err=%v, %d bytes written", format, sk.Events(), err, buf.Len())
			}
		}
		// A resumed reader has delivered the snapshot's events.
		var snap bytes.Buffer
		if err := behind.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.ResumeAt(s); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr2.Checkpoint(&buf, s.take()); err != nil {
			t.Fatalf("%v: checkpoint right after ResumeAt: %v", format, err)
		}
		if err := tr2.ResumeAt(s); err == nil {
			t.Fatalf("%v: ResumeAt accepted a reader that has delivered events", format)
		}
	}
}

// TestReaderResumeValidation: in-header offsets, over-long offsets and
// delta contexts sized for another header are rejected.
func TestReaderResumeValidation(t *testing.T) {
	decls, events := raWorkload(3, 6, 200, 7)
	hdr := Header{Threads: 3, Decls: decls}
	data := encodeStream(t, hdr, events, BinaryV2)

	tr, _ := NewTraceReader(bytes.NewReader(data))
	var snap bytes.Buffer
	if err := tr.Checkpoint(&snap, tr.NewMonitor()); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ck := *s.rck
	resume := func(mutate func(*readerCk)) error {
		c := ck
		c.PrevLoc, c.PrevNum = slices.Clone(ck.PrevLoc), slices.Clone(ck.PrevNum)
		mutate(&c)
		tr, _ := NewTraceReader(bytes.NewReader(data))
		return tr.resume(&c)
	}
	if err := resume(func(*readerCk) {}); err != nil {
		t.Fatalf("checkpoint at the first frame rejected: %v", err)
	}
	if err := resume(func(c *readerCk) { c.Offset = 1 }); err == nil {
		t.Fatal("offset inside the header accepted")
	}
	if err := resume(func(c *readerCk) { c.Offset = int64(len(data)) + 100 }); err == nil {
		t.Fatal("offset beyond the trace accepted")
	}
	if err := resume(func(c *readerCk) { c.PrevLoc = c.PrevLoc[:1] }); err == nil {
		t.Fatal("delta context for another thread count accepted")
	}
}

// snapSection frames one section for hand-built malformed snapshots.
func snapSection(tag byte, payload []byte) []byte {
	out := []byte{tag}
	out = appendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// minimalSnapshot hand-builds a valid 1-thread, 1-NA-location snapshot,
// with hooks to corrupt individual sections.
func minimalSnapshot(mutate func(sections map[byte][]byte)) []byte {
	sections := map[byte][]byte{}
	var h []byte
	h = appendUvarint(h, 1) // threads
	h = appendUvarint(h, 1) // nlocs
	h = appendUvarint(h, 1) // name len
	h = append(h, 'x')
	h = append(h, byte(prog.NonAtomic))
	sections[snapTagHeader] = h
	var sy []byte
	sy = appendUvarint(sy, 10)   // events
	sy = appendUvarint(sy, 4096) // gcEvery
	sy = appendUvarint(sy, 4106) // nextGC
	sy = appendUvarint(sy, 0)    // adaptMin
	sy = appendUvarint(sy, 0)    // adaptMax
	sy = appendUvarint(sy, 0)    // raPeak
	sy = appendUvarint(sy, 0)    // raCollected
	sy = append(sy, 0)           // halted bitset
	sections[snapTagSync] = sy
	var cl []byte
	cl = appendUvarint(cl, 10) // clocks[0][0]
	cl = appendUvarint(cl, 3)  // minClock[0]
	sections[snapTagClocks] = cl
	sections[snapTagAtomic] = []byte{}
	sections[snapTagRA] = []byte{}
	var na []byte
	na = append(na, 0)         // flags
	na = appendVarint(na, 0)   // wT = thread 0
	na = appendUvarint(na, 10) // wC
	na = appendVarint(na, -1)  // rT = noEpoch
	na = appendUvarint(na, 0)  // rC
	na = appendVarint(na, 0)   // lastT
	sections[snapTagNA] = na
	if mutate != nil {
		mutate(sections)
	}
	out := []byte(snapMagic)
	out = append(out, snapVersion)
	for _, tag := range []byte{snapTagHeader, snapTagSync, snapTagClocks, snapTagAtomic, snapTagRA, snapTagNA} {
		if p, ok := sections[tag]; ok {
			out = append(out, snapSection(tag, p)...)
		}
	}
	if p, ok := sections[snapTagReader]; ok {
		out = append(out, snapSection(snapTagReader, p)...)
	}
	return append(out, snapSection(snapTagEnd, nil)...)
}

// TestRestoreValidates: the decoder errors — never panics — on the
// format's failure shapes: truncation anywhere, clock-count mismatches,
// escalated epochs without vectors, out-of-range fields, bad masks, and
// reader continuations that break the halt promise.
func TestRestoreValidates(t *testing.T) {
	valid := minimalSnapshot(nil)
	if _, err := ReadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("hand-built snapshot rejected: %v", err)
	}
	// Every truncation must error cleanly.
	for i := 0; i < len(valid); i++ {
		if _, err := ReadSnapshot(bytes.NewReader(valid[:i])); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	cases := []struct {
		name   string
		mutate func(s map[byte][]byte)
	}{
		{"clock count short", func(s map[byte][]byte) {
			var cl []byte
			cl = appendUvarint(cl, 10) // missing minClock entry
			s[snapTagClocks] = cl
		}},
		{"clock section trailing bytes", func(s map[byte][]byte) {
			s[snapTagClocks] = appendUvarint(s[snapTagClocks], 99)
		}},
		{"escalated write without vector", func(s map[byte][]byte) {
			var na []byte
			na = append(na, 0)
			na = appendVarint(na, -2) // escalated
			na = appendUvarint(na, 10)
			na = appendVarint(na, -1)
			na = appendUvarint(na, 0)
			na = appendVarint(na, 0)
			s[snapTagNA] = na
		}},
		{"epoch thread out of range", func(s map[byte][]byte) {
			var na []byte
			na = append(na, 0)
			na = appendVarint(na, 7) // thread 7 of 1
			na = appendUvarint(na, 10)
			na = appendVarint(na, -1)
			na = appendUvarint(na, 0)
			na = appendVarint(na, 0)
			s[snapTagNA] = na
		}},
		{"bad mask bits", func(s map[byte][]byte) {
			var na []byte
			na = append(na, 4) // reported flag
			na = appendVarint(na, 0)
			na = appendUvarint(na, 10)
			na = appendVarint(na, -1)
			na = appendUvarint(na, 0)
			na = appendVarint(na, 0)
			na = append(na, 0xF0) // mask byte with unknown bits
			s[snapTagNA] = na
		}},
		{"gcEvery zero", func(s map[byte][]byte) {
			var sy []byte
			sy = appendUvarint(sy, 10)
			sy = appendUvarint(sy, 0) // gcEvery 0
			sy = appendUvarint(sy, 4106)
			sy = appendUvarint(sy, 0)
			sy = appendUvarint(sy, 0)
			sy = appendUvarint(sy, 0)
			sy = appendUvarint(sy, 0)
			sy = append(sy, 0)
			s[snapTagSync] = sy
		}},
		{"halted bitset ghost bits", func(s map[byte][]byte) {
			sy := bytes.Clone(s[snapTagSync])
			sy[len(sy)-1] = 0x80 // bit 7 of a 1-thread set
			s[snapTagSync] = sy
		}},
		{"missing section", func(s map[byte][]byte) {
			delete(s, snapTagRA)
		}},
		{"reader post-halt pending", func(s map[byte][]byte) {
			var rd []byte
			rd = appendUvarint(rd, 100)   // offset
			rd = append(rd, 1)            // v2
			rd = appendVarint(rd, 0)      // prevThread
			rd = appendVarint(rd, 0)      // prevLoc[0]
			rd = appendVarint(rd, 0)      // prevNum[0]
			rd = append(rd, 1)            // halted: thread 0
			rd = appendUvarint(rd, 1)     // one pending event
			rd = append(rd, byte(ReadNA)) // … of the halted thread
			rd = appendUvarint(rd, 0)
			rd = appendUvarint(rd, 0)
			s[snapTagReader] = rd
		}},
		{"reader pending kind mismatch", func(s map[byte][]byte) {
			var rd []byte
			rd = appendUvarint(rd, 100)
			rd = append(rd, 1)
			rd = appendVarint(rd, 0)
			rd = appendVarint(rd, 0)
			rd = appendVarint(rd, 0)
			rd = append(rd, 0)
			rd = appendUvarint(rd, 1)
			rd = append(rd, byte(ReadRA)) // RA access on an NA location
			rd = appendUvarint(rd, 0)
			rd = appendUvarint(rd, 0)
			rd = appendVarint(rd, 1)
			rd = appendUvarint(rd, 1)
			s[snapTagReader] = rd
		}},
	}
	for _, tc := range cases {
		data := minimalSnapshot(tc.mutate)
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("LDTR\x02"))); err == nil {
		t.Error("wire magic accepted as snapshot")
	}
	// Version 2 is the only one decoded, a reader section must carry
	// the binary-v2 flag byte 1, and the sync section's retired
	// adaptive-GC bounds must be 0: pin the errors for the retired
	// version-1 header, a future version, the retired v1 reader flag 0,
	// and a nonzero adaptMin or adaptMax.
	withVersion := func(ver byte) []byte {
		b := bytes.Clone(valid)
		b[len(snapMagic)] = ver
		return b
	}
	withAdaptive := func(adaptMin, adaptMax uint64) []byte {
		return minimalSnapshot(func(s map[byte][]byte) {
			var sy []byte
			sy = appendUvarint(sy, 10)   // events
			sy = appendUvarint(sy, 4096) // gcEvery
			sy = appendUvarint(sy, 4106) // nextGC
			sy = appendUvarint(sy, adaptMin)
			sy = appendUvarint(sy, adaptMax)
			sy = appendUvarint(sy, 0) // raPeak
			sy = appendUvarint(sy, 0) // raCollected
			sy = append(sy, 0)        // halted bitset
			s[snapTagSync] = sy
		})
	}
	pinned := []struct {
		name, want string
		data       []byte
	}{
		{"version 1", "monitor: snapshot: unsupported version 1 (have 2)", withVersion(1)},
		{"version 99", "monitor: snapshot: unsupported version 99 (have 2)", withVersion(99)},
		{"reader flag 0", "monitor: snapshot reader section: wire-version flag 0, want 1 (binary v2)",
			minimalSnapshot(func(s map[byte][]byte) {
				var rd []byte
				rd = appendUvarint(rd, 100) // offset
				rd = append(rd, 0)          // the v1 trace flag
				rd = appendVarint(rd, 0)    // prevThread
				rd = append(rd, 0)          // halted
				rd = appendUvarint(rd, 0)   // no pending events
				s[snapTagReader] = rd
			})},
		{"adaptMin 16", "monitor: snapshot sync section: adaptMin 16, want 0 (adaptive GC is retired)",
			withAdaptive(16, 4096)},
		{"adaptMax 8192", "monitor: snapshot sync section: adaptMax 8192, want 0 (adaptive GC is retired)",
			withAdaptive(0, 8192)},
	}
	for _, tc := range pinned {
		if _, err := ReadSnapshot(bytes.NewReader(tc.data)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotSizeBounded is the boundedness property made measurable:
// across a 1M-event stream the windowed monitor's snapshot stays flat —
// O(locations + threads² + live RA) — while an unbounded-GC control's
// snapshot grows with the retained message count.
func TestSnapshotSizeBounded(t *testing.T) {
	decls, events := raWorkload(8, 16, 1_000_000, 23)
	bounded := New(8, decls)
	bounded.SetGCInterval(256) // small window: the live RA wobble stays
	// a fraction of the fixed O(locations + threads²) state
	control := New(8, decls)
	control.SetGCInterval(1 << 62) // never sweeps: retains every message
	const every = 100_000
	var boundedSizes, controlSizes []int
	snapLen := func(m *Monitor) int {
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	for i := 0; i < len(events); i += every {
		bounded.StepBatch(events[i : i+every])
		control.StepBatch(events[i : i+every])
		boundedSizes = append(boundedSizes, snapLen(bounded))
		controlSizes = append(controlSizes, snapLen(control))
	}
	// Flat: once the per-location state has saturated (first checkpoint),
	// the bounded snapshot may wobble with the live RA window but must
	// not trend with the stream length.
	min, max := boundedSizes[0], boundedSizes[0]
	for _, s := range boundedSizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max > 2*min {
		t.Fatalf("bounded snapshot not flat: sizes %v (max %d > 2×min %d)", boundedSizes, max, min)
	}
	// Growing: the control must gain at least a message's worth per
	// checkpoint and dwarf the bounded snapshot by the end.
	for i := 1; i < len(controlSizes); i++ {
		if controlSizes[i] <= controlSizes[i-1] {
			t.Fatalf("unbounded control stopped growing at checkpoint %d: %v", i, controlSizes)
		}
	}
	last := len(boundedSizes) - 1
	if controlSizes[last] < 10*boundedSizes[last] {
		t.Fatalf("control %d bytes not ≫ bounded %d bytes — fixture lost its point",
			controlSizes[last], boundedSizes[last])
	}
	t.Logf("snapshot bytes at 100k-event checkpoints: bounded %v, unbounded control %v", boundedSizes, controlSizes)
}

// TestSnapshotChunkedSections: states whose per-location payload sums
// past the ~1 MiB chunk size split across repeated sections, and
// whatever Snapshot writes, ReadSnapshot accepts — the regression bar
// for the encoder/decoder asymmetry where a wide monitor (hundreds of
// threads, many raced locations, or an unbounded-GC RA backlog) wrote a
// single section larger than the decoder's payload cap, making a
// successfully written checkpoint unresumable.
func TestSnapshotChunkedSections(t *testing.T) {
	const threads = 256
	var decls []LocDecl
	for i := 0; i < 40; i++ {
		decls = append(decls, LocDecl{Name: prog.Loc(fmt.Sprintf("n%d", i)), Kind: prog.NonAtomic})
	}
	decls = append(decls, LocDecl{Name: "R", Kind: prog.ReleaseAcquire})
	raLoc := int32(len(decls) - 1)
	m := New(threads, decls)
	m.SetGCInterval(1 << 62) // retain every RA message
	// Race every NA location across two threads: each allocates a
	// threads² = 64 KiB dedup mask, so the NA section alone spans
	// multiple chunks.
	for l := int32(0); l < raLoc; l++ {
		m.Step(Event{Thread: int32(l) % threads, Loc: l, Kind: WriteNA})
		m.Step(Event{Thread: (int32(l) + 1) % threads, Loc: l, Kind: WriteNA})
	}
	// And a deep RA backlog so the RA section chunks too.
	for i := int64(1); i <= 2_000; i++ {
		m.Step(Event{Thread: int32(i) % threads, Loc: raLoc, Kind: WriteRA, Time: ts.FromInt(i)})
	}
	var a bytes.Buffer
	if err := m.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if a.Len() < 3*snapChunk {
		t.Fatalf("fixture too small to chunk: %d bytes", a.Len())
	}
	restored, err := restore(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("decoder rejected the encoder's own output: %v", err)
	}
	var b bytes.Buffer
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("chunked snapshot not canonical (%d vs %d bytes)", a.Len(), b.Len())
	}
	if restored.RaceCount() != m.RaceCount() || restored.RAStats() != m.RAStats() {
		t.Fatalf("chunked restore lost state: races %d/%d, stats %+v/%+v",
			restored.RaceCount(), m.RaceCount(), restored.RAStats(), m.RAStats())
	}
}

// FuzzRestore: the snapshot decoder must never panic, and any snapshot
// it accepts must restore a monitor that can consume further events and
// produce reports without crashing. Seeded with genuine snapshots at
// several split points (sequential and mid-ingestion with reader
// continuations) plus corruption shapes.
func FuzzRestore(f *testing.F) {
	decls, events := raWorkload(4, 8, 2_000, 17)
	hdr := Header{Threads: 4, Decls: decls}
	snapAt := func(k int) []byte {
		m := New(4, decls)
		m.SetGCInterval(32)
		m.StepBatch(events[:k])
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(snapAt(0))
	f.Add(snapAt(700))
	f.Add(snapAt(2_000))
	// A mid-ingestion snapshot with a v2 reader continuation (pending
	// events included: 700 lands mid-frame at the default frame size).
	var wireBuf bytes.Buffer
	tw, err := NewTraceWriter(&wireBuf, hdr, BinaryV2)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		f.Fatal(err)
	}
	tr, err := NewTraceReader(bytes.NewReader(wireBuf.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	m := tr.NewMonitor()
	for i := 0; i < 700; i++ {
		e, _, err := tr.Next()
		if err != nil {
			f.Fatal(err)
		}
		m.Step(e)
	}
	var withReader bytes.Buffer
	if err := tr.Checkpoint(&withReader, m); err != nil {
		f.Fatal(err)
	}
	f.Add(withReader.Bytes())
	base := snapAt(700)
	f.Add(base[:len(base)-3]) // truncated
	f.Add(func() []byte {     // corrupted mid-section
		b := bytes.Clone(base)
		b[len(b)/2] ^= 0xFF
		return b
	}())
	f.Add([]byte("LDCK\x01"))
	f.Add([]byte{})

	// Many live RA messages at non-integer rational timestamps (negative
	// numerators included), and a copy whose store holds one timestamp
	// twice: seeds that put the restore path's RA store insertion and its
	// duplicate-timestamp rejection under the fuzzer.
	raDecls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "R", Kind: prog.ReleaseAcquire}}
	ram := New(4, raDecls)
	ram.SetGCInterval(1 << 62) // retain every message
	for i := int64(0); i < 200; i++ {
		tm := ts.New(2*i-199, 2)
		if i >= 100 {
			tm = ts.New(3*i+1, 3)
		}
		ram.Step(Event{Thread: int32(i % 4), Loc: 1, Kind: WriteRA, Time: tm})
	}
	var manyRA bytes.Buffer
	if err := ram.Snapshot(&manyRA); err != nil {
		f.Fatal(err)
	}
	if ram.RAStats().Live != 200 {
		f.Fatalf("fixture retains %d RA messages, want 200", ram.RAStats().Live)
	}
	f.Add(manyRA.Bytes())
	st := &ram.ra[1]
	st.live = append(st.live, st.live[7])
	st.clocks = append(st.clocks, st.clock(7)...)
	var dupRA bytes.Buffer
	if err := ram.Snapshot(&dupRA); err != nil {
		f.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(dupRA.Bytes())); err == nil || !strings.Contains(err.Error(), "duplicate message timestamp") {
		f.Fatalf("snapshot with a duplicated RA timestamp: got %v, want a duplicate-timestamp error", err)
	}
	f.Add(dupRA.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := s.hdr
		// Cap the restored shape: the limits admit sizes that are fine for
		// real monitors but too slow to exercise per fuzz exec.
		if h.Threads > 64 || len(h.Decls) > 1024 {
			return
		}
		if s.rck != nil {
			// Accepted continuations must satisfy their own invariants.
			if err := s.rck.validate(h); err != nil {
				t.Fatalf("accepted reader continuation fails validation: %v", err)
			}
		}
		rm := s.take()
		// The restored monitor must consume arbitrary in-bounds events
		// without panicking.
		for i, d := range h.Decls {
			var k Kind
			switch d.Kind {
			case prog.Atomic:
				k = WriteAT
			case prog.ReleaseAcquire:
				k = WriteRA
			default:
				k = WriteNA
			}
			rm.Step(Event{Thread: int32(i % h.Threads), Loc: int32(i), Kind: k, Time: ts.FromInt(int64(i))})
			rm.Step(Event{Thread: int32((i + 1) % h.Threads), Loc: int32(i), Kind: k - 1, Time: ts.FromInt(int64(i))})
		}
		_ = rm.Reports()
		_ = rm.RAStats()
	})
}

// TestSnapshotRejectsInvalidHeader: a monitor built over declarations
// the wire header cannot carry (here: a name with a space) cannot be
// snapshotted — the error is reported, not deferred to restore time.
func TestSnapshotRejectsInvalidHeader(t *testing.T) {
	m := New(1, []LocDecl{{Name: prog.Loc("a b"), Kind: prog.NonAtomic}})
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err == nil {
		t.Fatal("snapshot accepted an unencodable location name")
	}
}

// TestSnapshotConsumedPanics pins the single-use contract of a decoded
// snapshot: the second hand-over panics with a clear message (API
// misuse, not input-driven — malformed input always errors instead).
func TestSnapshotConsumedPanics(t *testing.T) {
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}}
	m := New(1, decls)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Open(PipelineConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("second Open did not panic")
		}
	}()
	_ = s.Open(PipelineConfig{})
}
