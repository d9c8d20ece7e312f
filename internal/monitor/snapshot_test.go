package monitor

import (
	"bytes"
	"fmt"
	"io"
	"math"
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

// TestSnapshotLongGCInterval: an interval set mid-stream that would put
// the next sweep past 2⁶⁴ events saturates instead of wrapping, so the
// schedule stays within what the decoder accepts and round-trips.
func TestSnapshotLongGCInterval(t *testing.T) {
	decls, events := raWorkload(4, 8, 1_000, 3)
	m := New(4, decls)
	m.StepBatch(events[:500])
	m.SetGCInterval(math.MaxUint64)
	m.StepBatch(events[500:])
	var a bytes.Buffer
	if err := m.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("decoder rejected the encoder's own output: %v", err)
	}
	if restored.nextGC != math.MaxUint64 || restored.RAStats() != m.RAStats() {
		t.Fatalf("restored nextGC %d, stats %+v; want %d, %+v", restored.nextGC, restored.RAStats(), uint64(math.MaxUint64), m.RAStats())
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

// ingestTo feeds tr into m with the NextBatch → StepBatch loop, cutting
// the last batch at k events, as racemon -checkpoint-at does — so a k
// inside a frame leaves the rest of that frame decoded but unstepped.
func ingestTo(t *testing.T, tr *TraceReader, m *Monitor, k uint64) {
	t.Helper()
	var buf []Event
	for m.Events() < k {
		batch, ok, err := tr.NextBatch(buf[:0])
		if err != nil || !ok {
			t.Fatalf("ingest to %d: ok=%v err=%v after %d events", k, ok, err, m.Events())
		}
		buf = batch
		m.StepBatch(batch[:min(uint64(len(batch)), k-m.Events())])
	}
}

// TestReaderCheckpointResume: there is one checkpoint form. At every
// split k, inside and at frame boundaries, a monitor that ingested k
// events from a binary or a text trace, sequential or at 4 shards,
// snapshots to the bytes of a monitor stepped over the events directly;
// so does a resumed one, checkpointed again at once. That snapshot,
// resumed over either format, finishes with the reports, stats and
// event count of a one-shot ingest.
func TestReaderCheckpointResume(t *testing.T) {
	decls, events := raWorkload(5, 12, 10_000, 17)
	hdr := Header{Threads: 5, Decls: decls}
	formats := []Format{BinaryV2, Text}
	data := map[Format][]byte{}
	for _, f := range formats {
		data[f] = encodeStream(t, hdr, events, f)
	}
	ref, err := MonitorReader(bytes.NewReader(data[BinaryV2]))
	if err != nil {
		t.Fatal(err)
	}
	reader := func(f Format) *TraceReader {
		tr, err := NewTraceReader(bytes.NewReader(data[f]))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	snapshot := func(m *Monitor) []byte {
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, k := range []int{0, 1, 3000, 4096, 5000, 8192, 9_999, 10_000} {
		direct := New(5, decls)
		direct.StepBatch(events[:k])
		want := snapshot(direct)
		for _, f := range formats {
			for _, shards := range []int{1, 4} {
				m := Open(hdr, PipelineConfig{Shards: shards})
				ingestTo(t, reader(f), m, uint64(k))
				if got := snapshot(m); !bytes.Equal(got, want) {
					t.Fatalf("k=%d %v shards=%d: checkpoint differs from the direct one (%d vs %d bytes)", k, f, shards, len(got), len(want))
				}
				m.Finish()

				s, err := ReadSnapshot(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				tr := reader(f)
				if err := tr.ResumeAt(s); err != nil {
					t.Fatalf("k=%d %v: resume: %v", k, f, err)
				}
				m2 := s.Open(PipelineConfig{Shards: shards})
				if got := snapshot(m2); !bytes.Equal(got, want) {
					t.Fatalf("k=%d %v shards=%d: re-checkpoint after resume differs (%d vs %d bytes)", k, f, shards, len(got), len(want))
				}
				if err := stepAll(tr, m2); err != nil {
					t.Fatalf("k=%d %v: feed: %v", k, f, err)
				}
				if got := m2.Finish(); !race.ReportsEqual(got, ref.Reports()) {
					t.Fatalf("k=%d %v shards=%d: resumed ingest diverged\ngot  %v\nwant %v", k, f, shards, got, ref.Reports())
				}
				if m2.RAStats() != ref.RAStats() || m2.Events() != ref.Events() {
					t.Fatalf("k=%d %v shards=%d: RA stats %+v at %d events, want %+v at %d",
						k, f, shards, m2.RAStats(), m2.Events(), ref.RAStats(), ref.Events())
				}
			}
		}
	}
}

// TestReaderCheckpointText: a monitor fed event by event from a text
// trace checkpoints with Monitor.Snapshot, and that checkpoint resumes
// by count over the same text trace to the reports and event count of
// a one-shot ingest. A text trace that ends inside the checkpoint's
// already-monitored events is refused.
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
		var ck bytes.Buffer
		if err := m.Snapshot(&ck); err != nil {
			t.Fatalf("k=%d: %v", k, err)
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

	full := New(5, decls)
	full.StepBatch(events)
	var ck bytes.Buffer
	if err := full.Snapshot(&ck); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	short := encodeStream(t, hdr, events[:len(events)/2], Text)
	tr, err := NewTraceReader(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ResumeAt(s); err == nil {
		t.Fatal("a text trace shorter than the checkpoint was accepted")
	}
}

// TestReaderCheckpointMidFrameHalt: a binary frame's halts enter the
// decoder's halted set when the frame is decoded, before the halting
// thread's earlier accesses are delivered. A checkpoint at every split
// of a one-frame stream — for k ≤ 2 one with a pre-halt access still
// undelivered — resumes by count to the result of an unbroken ingest.
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
		if err := m.Snapshot(&buf); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		s, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
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

// snapParts is a hand-built snapshot, part by part in stream order, so
// a test can corrupt one field of one part.
type snapParts struct {
	header, sync, clocks, atomic, ra, na, predict []byte
	end                                           byte
}

func (p *snapParts) bytes() []byte {
	out := append([]byte(snapMagic), snapVersion)
	for _, part := range [][]byte{p.header, p.sync, p.clocks, p.atomic, p.ra, p.na, p.predict} {
		out = append(out, part...)
	}
	return append(out, p.end)
}

// uvarints appends each value as a uvarint.
func uvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = appendUvarint(b, v)
	}
	return b
}

// syncPart builds a sync part with the given schedule and RA peak, no
// RA collected and no thread halted.
func syncPart(events, gcEvery, nextGC, raPeak uint64) []byte {
	return append(uvarints(nil, events, gcEvery, nextGC, raPeak, 0), 0) // raCollected 0, halted bitset
}

// naPart builds one NA location's state: flags, write epoch (thread
// wT, clock 10), no read epoch, last thread 0, then extra (a vector or
// masks).
func naPart(flags byte, wT int64, extra ...byte) []byte {
	na := appendVarint([]byte{flags}, wT)
	na = appendUvarint(na, 10)  // wC
	na = appendVarint(na, -1)   // rT = noEpoch
	na = appendUvarint(na, 0)   // rC
	na = appendVarint(na, 0)    // lastT
	return append(na, extra...) // vector or masks
}

// winPart encodes one short:k window entry of thread 0.
func winPart(gidx uint64, write byte) []byte {
	return append(uvarints(nil, gidx, 1, 0), write) // epoch 1, thread 0
}

// shortPredict builds a PredShort predict part for the one NA location:
// window k, the given entries, no masks, then peak and pruned 0.
func shortPredict(k uint64, peak uint64, entries ...[]byte) []byte {
	p := uvarints([]byte{byte(PredShort)}, k, uint64(len(entries)))
	for _, e := range entries {
		p = append(p, e...)
	}
	p = append(p, 0) // mask flag
	return uvarints(p, peak, 0)
}

// minimalSnapshot hand-builds a valid 1-thread, 1-NA-location snapshot
// at event 10, with a hook to corrupt individual fields.
func minimalSnapshot(mutate func(p *snapParts)) []byte {
	p := &snapParts{
		header:  append(uvarints(nil, 1, 1, 1), 'x', byte(prog.NonAtomic)), // 1 thread, 1 location "x"
		sync:    syncPart(10, 4096, 4106, 0),
		clocks:  uvarints(nil, 10, 3), // clocks[0][0], minClock[0]
		na:      naPart(0, 0),
		predict: []byte{byte(PredHB)},
		end:     snapEnd,
	}
	if mutate != nil {
		mutate(p)
	}
	return p.bytes()
}

// withRAMessage adds a release-acquire location R holding one live
// message to the minimal snapshot, with the given recorded RA peak.
func withRAMessage(raPeak uint64) func(p *snapParts) {
	return func(p *snapParts) {
		h := uvarints(nil, 1, 2) // 1 thread, 2 locations
		h = append(appendUvarint(h, 1), 'x', byte(prog.NonAtomic))
		h = append(appendUvarint(h, 1), 'R', byte(prog.ReleaseAcquire))
		p.header = h
		p.sync = syncPart(10, 4096, 4106, raPeak)
		ra := appendUvarint(nil, 1)  // one message
		ra = appendVarint(ra, 1)     // num
		p.ra = uvarints(ra, 1, 0, 7) // den, writer, its clock
	}
}

// TestRestoreValidates: the decoder errors — never panics — on the
// format's failure shapes: truncation anywhere, clock-count mismatches,
// escalated epochs without vectors, out-of-range fields, bad masks, a
// GC schedule no monitor keeps, an RA peak below the live count, a
// malformed short:k window and a bad predicate or end byte.
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
	// The schedule's edges, a live RA message under its peak, and a
	// short:k window at its peak are valid.
	for name, mutate := range map[string]func(p *snapParts){
		"nextGC one event ahead": func(p *snapParts) { p.sync = syncPart(10, 4096, 11, 0) },
		"RA peak at live count":  withRAMessage(1),
		"syncp":                  func(p *snapParts) { p.predict = []byte{byte(PredSyncP)} },
		"short window":           func(p *snapParts) { p.predict = shortPredict(4, 2, winPart(8, 1), winPart(8, 0)) },
	} {
		if _, err := ReadSnapshot(bytes.NewReader(minimalSnapshot(mutate))); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	cases := []struct {
		name   string
		mutate func(p *snapParts)
	}{
		{"clock count short", func(p *snapParts) { p.clocks = uvarints(nil, 10) }}, // missing minClock entry
		{"clock count long", func(p *snapParts) { p.clocks = uvarints(p.clocks, 99) }},
		{"escalated write without vector", func(p *snapParts) { p.na = naPart(0, -2) }},
		{"epoch thread out of range", func(p *snapParts) { p.na = naPart(0, 7) }}, // thread 7 of 1
		{"unknown NA flag bits", func(p *snapParts) { p.na = naPart(8, 0) }},
		{"bad mask bits", func(p *snapParts) { p.na = naPart(4, 0, 0xF0) }}, // reported, a mask byte with unknown bits
		{"gcEvery zero", func(p *snapParts) { p.sync = syncPart(10, 0, 4106, 0) }},
		{"nextGC never due", func(p *snapParts) { p.sync = syncPart(10, 4096, math.MaxUint64, 0) }},
		{"nextGC behind events", func(p *snapParts) { p.sync = syncPart(10, 4096, 3, 0) }},
		{"nextGC at events", func(p *snapParts) { p.sync = syncPart(10, 4096, 10, 0) }},
		{"nextGC past one interval", func(p *snapParts) { p.sync = syncPart(10, 4096, 4107, 0) }},
		{"nextGC behind events, interval wraps", func(p *snapParts) { p.sync = syncPart(10, math.MaxUint64, 9, 0) }},
		{"RA peak below live count", withRAMessage(0)},
		{"halted bitset ghost bits", func(p *snapParts) { p.sync[len(p.sync)-1] = 0x80 }}, // bit 7 of a 1-thread set
		{"window k under syncp", func(p *snapParts) { p.predict = []byte{byte(PredSyncP), 4} }},
		{"window k zero", func(p *snapParts) { p.predict = shortPredict(0, 0) }},
		{"window out of FIFO order", func(p *snapParts) { p.predict = shortPredict(4, 2, winPart(9, 1), winPart(8, 1)) }},
		{"window entry beyond event count", func(p *snapParts) { p.predict = shortPredict(4, 1, winPart(11, 1)) }},
		{"window write flag not 0 or 1", func(p *snapParts) { p.predict = shortPredict(4, 1, winPart(8, 2)) }},
		{"window peak below live count", func(p *snapParts) { p.predict = shortPredict(4, 1, winPart(8, 1), winPart(9, 1)) }},
		{"window entry thread out of range", func(p *snapParts) {
			p.predict = shortPredict(4, 1, append(uvarints(nil, 8, 1, 1), 1)) // thread 1 of 1
		}},
		{"window mask flag not 0 or 1", func(p *snapParts) {
			p.predict = shortPredict(4, 0)
			p.predict[len(p.predict)-3] = 2
		}},
		{"end byte", func(p *snapParts) { p.end = 0 }},
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
	// Errors name the part and the field: a byte 7 where the predicate
	// goes (version 2's trace-reader section tag) and a cut inside the
	// sync part.
	withSeven := minimalSnapshot(func(p *snapParts) { p.predict = []byte{7} })
	const wantPred = "monitor: snapshot predict: unknown predicate 7"
	if _, err := ReadSnapshot(bytes.NewReader(withSeven)); err == nil || err.Error() != wantPred {
		t.Errorf("predicate 7: got error %v, want %q", err, wantPred)
	}
	cut := valid[:len(snapMagic)+1+5+3] // magic, version, header, events, gcEvery
	const wantCut = "monitor: snapshot sync: nextGC: unexpected EOF"
	if _, err := ReadSnapshot(bytes.NewReader(cut)); err == nil || err.Error() != wantCut {
		t.Errorf("cut sync part: got error %v, want %q", err, wantCut)
	}
	// Version 4 is the only one decoded: pin the errors for the retired
	// versions 1 to 3 and for a future version.
	withVersion := func(ver byte) []byte {
		b := bytes.Clone(valid)
		b[len(snapMagic)] = ver
		return b
	}
	for _, ver := range []byte{1, 2, 3, 99} {
		want := fmt.Sprintf("monitor: snapshot: unsupported version %d (have 4)", ver)
		if _, err := ReadSnapshot(bytes.NewReader(withVersion(ver))); err == nil || err.Error() != want {
			t.Errorf("version %d: got error %v, want %q", ver, err, want)
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

// TestSnapshotLargeState: a wide monitor's state of several MiB —
// hundreds of threads, many raced locations with threads² dedup masks,
// an unbounded-GC RA backlog — round-trips, canonically: whatever
// Snapshot writes, ReadSnapshot accepts, since no part of the stream
// has a size cap of its own.
func TestSnapshotLargeState(t *testing.T) {
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
	// threads² = 64 KiB dedup mask.
	for l := int32(0); l < raLoc; l++ {
		m.Step(Event{Thread: int32(l) % threads, Loc: l, Kind: WriteNA})
		m.Step(Event{Thread: (int32(l) + 1) % threads, Loc: l, Kind: WriteNA})
	}
	// And a deep RA backlog.
	for i := int64(1); i <= 2_000; i++ {
		m.Step(Event{Thread: int32(i) % threads, Loc: raLoc, Kind: WriteRA, Time: ts.FromInt(i)})
	}
	var a bytes.Buffer
	if err := m.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if a.Len() < 3<<20 {
		t.Fatalf("fixture too small: %d bytes", a.Len())
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
		t.Fatalf("large snapshot not canonical (%d vs %d bytes)", a.Len(), b.Len())
	}
	if restored.RaceCount() != m.RaceCount() || restored.RAStats() != m.RAStats() {
		t.Fatalf("large restore lost state: races %d/%d, stats %+v/%+v",
			restored.RaceCount(), m.RaceCount(), restored.RAStats(), m.RAStats())
	}
}

// FuzzRestore: the snapshot decoder must never panic, and any snapshot
// it accepts must restore a monitor that can consume further events and
// produce reports without crashing. Seeded with genuine snapshots at
// several split points (stepped directly and mid-ingestion of a binary
// trace, under each predicate) plus corruption shapes.
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
	// A snapshot taken mid-frame while ingesting the binary trace, at
	// the default GC interval.
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
	var ingested bytes.Buffer
	if err := m.Snapshot(&ingested); err != nil {
		f.Fatal(err)
	}
	f.Add(ingested.Bytes())
	base := snapAt(700)
	f.Add(base[:len(base)-3]) // truncated
	f.Add(func() []byte {     // corrupted mid-stream
		b := bytes.Clone(base)
		b[len(b)/2] ^= 0xFF
		return b
	}())
	f.Add([]byte("LDCK\x03")) // the retired version 3
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
	// The predict part under syncp and under short:k, whose window
	// entries and masks follow the predicate byte.
	for _, k := range []int{0, 8} {
		pm := New(4, decls)
		if k == 0 {
			pm.SetPredicate(PredSyncP, 0)
		} else {
			pm.SetPredicate(PredShort, k)
		}
		pm.StepBatch(events[:700])
		var buf bytes.Buffer
		if err := pm.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

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
