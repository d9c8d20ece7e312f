package monitor

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// haltWorkload is wireWorkload plus thread retirements — the shapes only
// v2 and text can carry.
func haltWorkload() (Header, []Event) {
	hdr, events := wireWorkload()
	events = append(events,
		Event{Thread: 0, Kind: KindHalt},
		Event{Thread: 2, Loc: 0, Kind: WriteNA},
		Event{Thread: 2, Kind: KindHalt},
	)
	return hdr, events
}

// TestWireV2RoundTrip: encode → decode through the delta-compressed v2
// format reproduces the header and every event (including halts and RA
// timestamps) exactly, via both Next and NextBatch.
func TestWireV2RoundTrip(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, BinaryV2)
	for _, batched := range []bool{false, true} {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Header()
		if got.Threads != hdr.Threads || len(got.Decls) != len(hdr.Decls) {
			t.Fatalf("header mismatch: %+v vs %+v", got, hdr)
		}
		var decoded []Event
		if batched {
			for {
				var ok bool
				decoded, ok, err = tr.NextBatch(decoded)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
		} else {
			for {
				e, ok, err := tr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				decoded = append(decoded, e)
			}
		}
		if len(decoded) != len(events) {
			t.Fatalf("batched=%v: decoded %d events, want %d", batched, len(decoded), len(events))
		}
		for i, want := range events {
			e := decoded[i]
			if e.Thread != want.Thread || e.Kind != want.Kind {
				t.Fatalf("batched=%v: event %d: got %+v, want %+v", batched, i, e, want)
			}
			if want.Kind != KindHalt && e.Loc != want.Loc {
				t.Fatalf("batched=%v: event %d: loc %d, want %d", batched, i, e.Loc, want.Loc)
			}
			if (want.Kind == ReadRA || want.Kind == WriteRA) && !e.Time.Equal(want.Time) {
				t.Fatalf("batched=%v: event %d: timestamp %v, want %v", batched, i, e.Time, want.Time)
			}
		}
	}
}

// TestWireV2FrameBoundaries: streams longer than one frame round-trip
// across the frame boundary (the delta context persists between frames).
func TestWireV2FrameBoundaries(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 3*defaultFrameEvents+17, 5)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	batches := 0
	for {
		before := len(decoded)
		var ok bool
		decoded, ok, err = tr.NextBatch(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(decoded) == before {
			t.Fatal("NextBatch returned ok with no events")
		}
		batches++
	}
	if batches != 4 {
		t.Fatalf("got %d batches, want 4 (3 full frames + remainder)", batches)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i].Thread != events[i].Thread || decoded[i].Loc != events[i].Loc || decoded[i].Kind != events[i].Kind {
			t.Fatalf("event %d: got %+v, want %+v", i, decoded[i], events[i])
		}
	}

	// NextBatch decodes each frame while the caller steps the one before.
	// Whichever way the caller hands arrays back (batchModes, Next mixed
	// in), it must yield the per-event pass's events in order, never
	// write an array the caller still holds, and end the same way: here
	// and at every truncation of a trace of many small frames.
	tr, err = NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, end := drainNext(tr)
	if !slices.Equal(want, decoded) || end != "" {
		t.Fatalf("per-event pass: %d events, end %q; want the batch pass's %d, clean", len(want), end, len(decoded))
	}
	if err := batchParity(data, want, "", New(4, decls)); err != nil {
		t.Fatal(err)
	}
	small, _ := smallFrames(t, 5)
	for cut := 0; cut <= len(small); cut++ {
		tr, err := NewTraceReader(bytes.NewReader(small[:cut]))
		if err != nil {
			continue // the header is cut
		}
		want, end := drainNext(tr)
		if err := batchParity(small[:cut], want, end, nil); err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(small), err)
		}
	}
}

// TestNextBatchResume: ResumeAt skips by Next, mid-frame or at a frame
// boundary; NextBatch then yields the rest of that frame and decodes
// ahead from there, in every batch mode.
func TestNextBatchResume(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 3*defaultFrameEvents+17, 5)
	data := encodeAll(t, Header{Threads: 4, Decls: decls}, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainNext(tr)
	for _, k := range []int{0, 1, defaultFrameEvents - 1, defaultFrameEvents, 2*defaultFrameEvents + 5} {
		m := New(4, decls)
		m.StepBatch(events[:k])
		var ck bytes.Buffer
		if err := m.Snapshot(&ck); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(&ck)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range batchModes {
			tr, err := NewTraceReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.ResumeAt(snap); err != nil {
				t.Fatal(err)
			}
			got, _, end := drainBatches(tr, mode, nil)
			if end != "" || !slices.Equal(got, want[k:]) {
				t.Fatalf("resumed at %d, %s: %d events, end %q; want %d, clean", k, mode, len(got), end, len(want)-k)
			}
		}
	}
}

// TestNextBatchAbandoned: a reader dropped with decodeDepth frames in
// flight leaves no goroutine behind once they are decoded, and neither
// does one whose first frame in flight is corrupt, so that the frames
// chained after it end without reading.
func TestNextBatchAbandoned(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, (decodeDepth+3)*defaultFrameEvents, 9)
	clean := encodeAll(t, Header{Threads: 4, Decls: decls}, events, BinaryV2)
	small, starts := smallFrames(t, 5)
	corrupt := corruptFrame(small, starts[1])
	for _, tc := range []struct {
		name  string
		data  []byte
		reads int // NextBatch calls before the reader is dropped
	}{
		{"in-flight", clean, 2},
		{"corrupt-first-in-flight", corrupt, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustNotLeakGoroutines(t, func() {
				tr, err := NewTraceReader(bytes.NewReader(tc.data))
				if err != nil {
					t.Fatal(err)
				}
				var buf []Event
				for range tc.reads {
					batch, ok, err := tr.NextBatch(buf[:0])
					if err != nil || !ok {
						t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
					}
					buf = batch
				}
				if len(tr.ahead) != decodeDepth {
					t.Fatalf("%d frames in flight, want %d", len(tr.ahead), decodeDepth)
				}
			})
		})
	}
}

// corruptFrame returns a copy of data with the payload length of the
// frame at byte offset at set to 0, which the decoder rejects after
// reading that one byte.
func corruptFrame(data []byte, at int) []byte {
	b := slices.Clone(data)
	b[at] = 0
	return b
}

// readCounter is a trace source that yields one byte per Read and
// counts its Reads, so every byte the decoder takes is one Read.
type readCounter struct {
	data  []byte
	reads atomic.Int64
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads.Add(1)
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], r.data = r.data[0], r.data[1:]
	return 1, nil
}

// TestNextBatchReadsNothingPastEnd: once a frame ends the trace — a
// corrupt frame, at every frame index, or the clean end — the frames
// chained after it issue no further Read on the source. The per-event
// pass, which never decodes ahead, gives the Read count at which the
// trace ends; every batch mode must stop there, with its frames in
// flight waited for.
func TestNextBatchReadsNothingPastEnd(t *testing.T) {
	small, starts := smallFrames(t, 5)
	inputs := map[string][]byte{"clean-end": small}
	for k, at := range starts {
		inputs[fmt.Sprintf("corrupt-frame-%d", k)] = corruptFrame(small, at)
	}
	for name, data := range inputs {
		src := &readCounter{data: data}
		tr, err := NewTraceReader(src)
		if err != nil {
			t.Fatal(err)
		}
		drainNext(tr)
		want := src.reads.Load()
		for _, mode := range batchModes {
			src := &readCounter{data: data}
			tr, err := NewTraceReader(src)
			if err != nil {
				t.Fatal(err)
			}
			drainBatches(tr, mode, nil)
			tr.waitAhead()
			if got := src.reads.Load(); got != want {
				t.Fatalf("%s, %s: %d Reads, want the per-event pass's %d", name, mode, got, want)
			}
		}
	}
}

// TestWireV2MonitorParity: monitoring the v2-decoded stream (per event
// and per batch) reports exactly what the original slice reports.
func TestWireV2MonitorParity(t *testing.T) {
	hdr, events := haltWorkload()
	direct := New(hdr.Threads, hdr.Decls)
	direct.StepBatch(events)
	want := direct.Reports()
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	got, err := ReadRaces(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(got, want) {
		t.Fatalf("v2 decoded reports %v, want %v", got, want)
	}
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.NewMonitor()
	if err := stepAll(tr, m); err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(m.Reports(), want) {
		t.Fatalf("v2 NextBatch reports %v, want %v", m.Reports(), want)
	}
}

// TestWireV2SemanticsMatchText: a halt-carrying stream encodes to both
// formats and decodes to identical event sequences — the binary format
// is a pure compression of the text format's semantics.
func TestWireV2SemanticsMatchText(t *testing.T) {
	hdr, events := haltWorkload()
	decode := func(data []byte) []Event {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var out []Event
		for {
			e, ok, err := tr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, e)
		}
	}
	txt := decode(encodeAll(t, hdr, events, Text))
	bin := decode(encodeAll(t, hdr, events, BinaryV2))
	if len(txt) != len(events) || len(bin) != len(events) {
		t.Fatalf("text decoded %d events, binary %d, want %d", len(txt), len(bin), len(events))
	}
	for i := range txt {
		if txt[i].Thread != bin[i].Thread || txt[i].Loc != bin[i].Loc || txt[i].Kind != bin[i].Kind || !txt[i].Time.Equal(bin[i].Time) {
			t.Fatalf("event %d: text %+v, binary %+v", i, txt[i], bin[i])
		}
	}
}

// TestWireV2Rejects: the binary decoder errors (never panics) on every
// malformed-frame class and on every version byte but 2.
func TestWireV2Rejects(t *testing.T) {
	hdr, events := haltWorkload()
	v2 := encodeAll(t, hdr, events, BinaryV2)
	hdrOnly := encodeAll(t, hdr, nil, BinaryV2)

	// The retired version 1 is rejected at the header, before any frame
	// is parsed — the same bytes under version byte 1 never yield events.
	for _, ver := range []byte{1, 3} {
		b := append([]byte{}, v2...)
		b[4] = ver
		want := fmt.Sprintf("monitor: trace header: unsupported version %d (have 2)", ver)
		if _, err := NewTraceReader(bytes.NewReader(b)); err == nil || err.Error() != want {
			t.Errorf("version-%d header: got error %v, want %q", ver, err, want)
		}
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated frame payload", v2[:len(v2)-1]},
		{"truncated frame length", append(append([]byte{}, hdrOnly...), 0xff)},
		{"zero-length frame", append(append([]byte{}, hdrOnly...), 0x00)},
		{"oversized frame length", append(append([]byte{}, hdrOnly...), 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"zero event count", append(append([]byte{}, hdrOnly...), 0x01, 0x00)},
		{"event count exceeding payload", append(append([]byte{}, hdrOnly...), 0x02, 0xff, 0x7f)},
		{"trailing bytes after events", append(append([]byte{}, hdrOnly...),
			// payload: count=1, one NA-write event (tag only), junk byte.
			0x03, 0x01, byte(WriteNA)|7<<4, 0xAA)},
		{"unterminated varint", append(append([]byte{}, hdrOnly...),
			// count=1, tag with explicit loc delta, then 0x80s forever.
			0x0c, 0x01, byte(WriteNA)|15<<4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)},
		{"thread delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag with thread delta −1 from prevThread 0.
			0x04, 0x01, byte(WriteNA)|1<<3|7<<4, 0x01)},
		{"loc delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag loc field 0 → delta −7 from prevLoc 0.
			0x03, 0x01, byte(WriteNA)|0<<4)},
		{"halt with nonzero loc field", append(append([]byte{}, hdrOnly...),
			0x03, 0x01, byte(KindHalt)|7<<4)},
		{"kind 7", append(append([]byte{}, hdrOnly...), 0x03, 0x01, 7|7<<4)},
		{"event after halt", append(append([]byte{}, hdrOnly...),
			// count=2: halt t0, then a WriteNA by t0 — breaks the halt
			// promise the monitor's +∞ frontier treatment relies on.
			0x03, 0x02, byte(KindHalt), byte(WriteNA)|7<<4)},
		{"double halt", append(append([]byte{}, hdrOnly...),
			0x03, 0x02, byte(KindHalt), byte(KindHalt))},
		{"text event after halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 w x\n")},
		{"text double halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 halt\n")},
		{"zero timestamp denominator", append(append([]byte{}, hdrOnly...),
			// count=1, ReadRA on loc 2 ("R"): loc delta +2, dnum 1, den 0.
			0x05, 0x01, byte(ReadRA)|15<<4, 0x04, 0x02, 0x00)},
	}
	for _, tc := range cases {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: decoder accepted malformed input", tc.name)
		}
	}

	// The declaration and halt checks run off the decoder's fast path
	// (validateEvent and checkHalt only format the error), so pin their
	// exact messages, through both Next and NextBatch. The header is
	// x: nonatomic (0), F: atomic (1), R: ra (2).
	exact := []struct {
		name, want string
		data       []byte
	}{
		{"ReadRA on a nonatomic location",
			`monitor: trace event: ra access on location "x" declared nonatomic`,
			// count=1, ReadRA at loc delta 0, dnum 1, den 1.
			append(append([]byte{}, hdrOnly...), 0x04, 0x01, byte(ReadRA)|7<<4, 0x02, 0x01)},
		{"WriteAT on an RA location",
			`monitor: trace event: atomic access on location "R" declared ra`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x01, byte(WriteAT)|9<<4)},
		{"WriteNA on an atomic location",
			`monitor: trace event: nonatomic access on location "F" declared atomic`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x01, byte(WriteNA)|8<<4)},
		{"event after halt, in the next frame",
			"monitor: trace event: thread 0 acts after its halt",
			append(append([]byte{}, hdrOnly...),
				0x02, 0x01, byte(KindHalt), // frame 1: halt t0
				0x02, 0x01, byte(WriteNA)|7<<4)}, // frame 2: WriteNA by t0
		// A frame declaring more events than its payload can hold fails
		// at the first event the bytes run out for, unless an earlier
		// event fails first.
		{"event count exceeding payload, two events present",
			"monitor: trace frame: truncated event (missing tag)",
			append(append([]byte{}, hdrOnly...), 0x03, 0x05, byte(WriteNA)|7<<4, byte(WriteNA)|7<<4)},
		{"event count exceeding payload, first event mismatched",
			`monitor: trace event: nonatomic access on location "F" declared atomic`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x05, byte(WriteNA)|8<<4)},
		// The format's per-frame cap is checked before any event: 65537
		// events is one too many.
		{"event count above the frame cap",
			"monitor: trace frame: bad event count",
			append(append([]byte{}, hdrOnly...), 0x03, 0x81, 0x80, 0x04)},
	}
	for _, tc := range exact {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Next: got error %v, want %q", tc.name, err, tc.want)
		}
		tr, err := NewTraceReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		var batch []Event
		for err == nil {
			var ok bool
			if batch, ok, err = tr.NextBatch(batch[:0]); !ok && err == nil {
				break
			}
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: NextBatch: got error %v, want %q", tc.name, err, tc.want)
		}
	}

	// The encoder enforces the halt promise too, in both formats: no
	// event after a thread's halt, no double halt.
	for _, format := range []Format{BinaryV2, Text} {
		var hbuf bytes.Buffer
		htw, err := NewTraceWriter(&hbuf, hdr, format)
		if err != nil {
			t.Fatal(err)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err != nil {
			t.Fatalf("%v: first halt rejected: %v", format, err)
		}
		if err := htw.Write(Event{Thread: 1, Loc: 0, Kind: WriteNA}); err == nil {
			t.Errorf("%v writer accepted an event after the thread's halt", format)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err == nil {
			t.Errorf("%v writer accepted a double halt", format)
		}
		if err := htw.Write(Event{Thread: 0, Loc: 0, Kind: WriteNA}); err != nil {
			t.Errorf("%v writer rejected an unrelated thread after a halt: %v", format, err)
		}
	}
}

// TestWireV2TextHalt: the text format round-trips halt lines.
func TestWireV2TextHalt(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, Text)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	halts := 0
	for {
		e, ok, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Kind == KindHalt {
			halts++
		}
	}
	if halts != 2 {
		t.Fatalf("decoded %d halt events, want 2", halts)
	}
}

// TestWireV2TimestampDeltas: timestamps with denominators and negative
// deltas survive the per-location delta chain.
func TestWireV2TimestampDeltas(t *testing.T) {
	hdr := Header{Threads: 2, Decls: []LocDecl{{Name: "R", Kind: prog.ReleaseAcquire}}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(5, 3)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(5, 3)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(-2, 7)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(-2, 7)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(1000000, 1)},
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		e, ok, err := tr.Next()
		if err != nil || !ok {
			t.Fatalf("event %d: ok=%v err=%v", i, ok, err)
		}
		if !e.Time.Equal(want.Time) {
			t.Fatalf("event %d: timestamp %v, want %v", i, e.Time, want.Time)
		}
	}
}

// BenchmarkDecodeV2 measures the decode layer alone: NewTraceReader plus
// NextBatch over a 1M-event bursty v2 trace held in memory, with no
// monitor behind it.
func BenchmarkDecodeV2(b *testing.B) {
	decls, events := burstyWorkload(8, 64, 1_000_000, 97)
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, Header{Threads: 8, Decls: decls}, BinaryV2)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	batch := make([]Event, 0, defaultFrameEvents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			var ok bool
			batch, ok, err = tr.NextBatch(batch[:0])
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n += len(batch)
		}
		if n != len(events) {
			b.Fatalf("decoded %d events, want %d", n, len(events))
		}
	}
	reportEventRate(b, len(events))
}
