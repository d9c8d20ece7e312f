package monitor

// The raw-trace wire format: a versioned, self-describing encoding of an
// event stream, so executions that never ran inside this process (or
// this binary) can be monitored. Two interchangeable encodings share
// one logical format; the decoder sniffs which it was handed.
//
// Binary (magic "LDTR", then version byte 2) — the delta-compressed
// batch format. The header is
//
//	"LDTR" <version=2>
//	uvarint threads
//	uvarint nlocs
//	nlocs × ( uvarint len, len name bytes, kind byte 0=na 1=at 2=ra )
//
// followed by self-delimiting FRAMES until EOF. Each frame is
//
//	uvarint payloadLen            (bytes that follow, ≤ 1 MiB)
//	payload:
//	    uvarint count             (events in this frame, ≥ 1, ≤ 65536)
//	    count × event
//
// and each event is one tag byte plus optional varint fields:
//
//	tag bits 0..2: kind (0..6; 6 = KindHalt, the thread retirement)
//	tag bit  3:    thread flag — 0: same thread as the previous event;
//	               1: zigzag varint (thread − prevThread) follows
//	tag bits 4..7: location field (non-halt kinds only) —
//	               0..14: loc = prevLoc[thread] + (field − 7);
//	               15:    zigzag varint delta follows.
//	               Halt events carry no location; the field must be 0.
//	RA kinds append the timestamp as
//	    zigzag varint (num − prevNum[loc]), uvarint den.
//
// prevThread starts at 0 and tracks the previous event's thread;
// prevLoc[t] (per thread, start 0) tracks thread t's previous location —
// threads iterate over their own working sets, so per-thread deltas are
// small even when the interleaving jumps around; prevNum[l] (per
// location, start 0) tracks the last timestamp numerator, which grows by
// small increments under the program semantics. Encoder and decoder
// carry this context ACROSS frames; frames delimit I/O and batch
// decoding (TraceReader.NextBatch yields a frame at a time), not
// context. Most events fit in 2 bytes: tag + one loc-delta byte.
//
// Text (first line "ldtrace 1"; '#' starts a comment, blank lines are
// skipped):
//
//	ldtrace 1
//	threads 2
//	loc x na
//	loc R ra
//	0 w x
//	0 w R 1
//	1 r R 1
//	1 r x
//	0 halt
//
// Event lines are "<thread> r|w <locname> [<time>]" or "<thread> halt";
// the location's declared kind selects the event flavour, and the
// timestamp ("num" or "num/den") is required exactly for release-acquire
// events. A line, comment and newline included, is at most 64 KiB
// (maxTextLine); the longest line the encoder writes, an RA event on a
// 4 KiB name, is about 4.2 KB.
//
// Versions: the binary decoder accepts version 2 only (version 1 is
// retired) and the text decoder "ldtrace 1" only; any other version is
// rejected. A halt is a promise that the thread performs no further
// events — the monitor's +∞ frontier treatment is only sound under it —
// so both encoder and decoder track halted threads and reject any later
// event of a halted thread (including a second halt).
//
// The decoder VALIDATES everything it hands to the monitor — thread and
// location bounds (including after delta reconstruction), kind bytes,
// kind-versus-declaration consistency, timestamp well-formedness, frame
// sizes — and returns errors for malformed input instead of letting
// Monitor.Step index out of bounds. Timestamps of non-RA events are not
// preserved (the monitor ignores them).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// Format selects a trace encoding.
type Format int

const (
	// BinaryV2 is the delta-compressed framed encoding (magic "LDTR",
	// version 2), decodable a frame (batch) at a time.
	BinaryV2 Format = iota
	// Text is the line-oriented human-readable encoding.
	Text
)

// String names the format ("binary-v2" or "text").
func (f Format) String() string {
	if f == Text {
		return "text"
	}
	return "binary-v2"
}

// ParseFormat parses "binary" (aliases "binary-v2", "v2") or "text".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "binary", "binary-v2", "v2":
		return BinaryV2, nil
	case "text":
		return Text, nil
	}
	return BinaryV2, fmt.Errorf("monitor: unknown trace format %q (want binary|text)", s)
}

const (
	binaryMagic   = "LDTR"
	textMagic     = "ldtrace"
	binaryVersion = 2
	textVersion   = 1

	// Frame limits of the binary format: a frame payload is bounded so a
	// hostile length prefix cannot demand an arbitrary allocation, and
	// the event count is bounded so count × minimum-event-size must fit
	// the payload.
	maxFrameBytes      = 1 << 20
	maxFrameEvents     = 1 << 16
	defaultFrameEvents = 4096

	// maxTextLine bounds one text line, so a peer cannot make the
	// decoder buffer an unterminated line without limit.
	maxTextLine = 1 << 16

	// Format limits, enforced by both encoder and decoder. They exist so
	// a malformed or hostile header cannot make the decoder (or the
	// monitor allocated from it) balloon: the monitor's clock state is
	// O(threads²) and its location state O(locations).
	maxWireThreads = 1 << 10
	maxWireLocs    = 1 << 16
	maxWireName    = 1 << 12
	// maxWireCells bounds threads × locations jointly: the monitor
	// eagerly allocates an O(threads) clock vector per atomic location,
	// so the per-dimension limits alone would let a tiny hostile header
	// demand half a gigabyte before the first event is read.
	maxWireCells = 1 << 22
	// maxWireHeaderBytes bounds the header's declared size: the name
	// bytes plus headerDeclOverhead per declaration must stay below it.
	// The per-field limits alone admit 65536 locations × 4 KiB names,
	// ~270 MB a hostile header could make a decoder allocate; both
	// decoders charge each declaration before allocating its name.
	maxWireHeaderBytes = 1 << 20
	// headerDeclOverhead is the fixed per-declaration cost charged on top
	// of the name bytes (LocDecl bookkeeping, dedup map entry), so a
	// header of many short names still exhausts the budget in proportion
	// to the monitor state it would allocate.
	headerDeclOverhead = 16
)

// Header is the self-description of a wire-format trace: the thread
// count and the dense location declarations the events index into.
type Header struct {
	Threads int
	Decls   []LocDecl
}

// Equal reports whether two headers describe the same program shape.
func (h Header) Equal(o Header) bool {
	return h.Threads == o.Threads && slices.Equal(h.Decls, o.Decls)
}

// CheckShape reports whether a trace of the given thread and location
// counts fits the format's size limits — the first checks every header
// passes (CheckHeader), exported so a producer can refuse an absurdly
// sized workload before building any of it.
func CheckShape(threads, locs int) error {
	if threads < 1 || threads > maxWireThreads {
		return fmt.Errorf("monitor: trace header: thread count %d out of range [1,%d]", threads, maxWireThreads)
	}
	if locs > maxWireLocs {
		return fmt.Errorf("monitor: trace header: %d locations exceeds the limit %d", locs, maxWireLocs)
	}
	if threads*locs > maxWireCells {
		return fmt.Errorf("monitor: trace header: %d threads × %d locations exceeds the limit %d cells",
			threads, locs, maxWireCells)
	}
	return nil
}

// headerBudget charges one declaration with a name of n bytes to a
// header whose first i declarations cost *used bytes, and errors once
// the total reaches maxWireHeaderBytes — the one header-size rule the
// encoder, both decoders and CheckHeader apply.
func headerBudget(used *int, n, i int) error {
	if *used += n + headerDeclOverhead; *used >= maxWireHeaderBytes {
		return fmt.Errorf("declared sizes exceed the format's %d-byte header budget after %d locations", maxWireHeaderBytes, i)
	}
	return nil
}

// CheckHeader checks the format limits and per-declaration sanity: the
// rule the encoder and both decoders apply, exported so a producer can
// refuse a program whose header no trace could carry before generating
// any of it.
func CheckHeader(hdr Header) error {
	if err := CheckShape(hdr.Threads, len(hdr.Decls)); err != nil {
		return err
	}
	seen := make(map[prog.Loc]bool, len(hdr.Decls))
	used := 0
	for i, d := range hdr.Decls {
		if len(d.Name) == 0 || len(d.Name) > maxWireName {
			return fmt.Errorf("monitor: trace header: location %d has invalid name length %d", i, len(d.Name))
		}
		if err := headerBudget(&used, len(d.Name), i); err != nil {
			return fmt.Errorf("monitor: trace header: %w", err)
		}
		// Reject anything the text decoder's tokenizer (strings.Fields,
		// i.e. unicode.IsSpace) or comment stripping would mangle, so
		// every accepted header round-trips in both formats.
		if strings.IndexFunc(string(d.Name), func(r rune) bool {
			return unicode.IsSpace(r) || unicode.IsControl(r) || r == '#'
		}) >= 0 {
			return fmt.Errorf("monitor: trace header: location name %q contains whitespace, control characters or '#'", d.Name)
		}
		if d.Kind != prog.NonAtomic && d.Kind != prog.Atomic && d.Kind != prog.ReleaseAcquire {
			return fmt.Errorf("monitor: trace header: location %q has unknown kind %d", d.Name, d.Kind)
		}
		if seen[d.Name] {
			return fmt.Errorf("monitor: trace header: duplicate location name %q", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// validateEvent checks an event against a header: bounds, kind validity,
// and kind-versus-declaration consistency (an RA event on a nonatomic
// location would corrupt the monitor's per-kind state). Halt events only
// need their thread in range — location and timestamp are ignored.
func validateEvent(hdr Header, e Event) error {
	if e.Thread < 0 || int(e.Thread) >= hdr.Threads {
		return fmt.Errorf("monitor: trace event: thread %d out of range [0,%d)", e.Thread, hdr.Threads)
	}
	if e.Kind == KindHalt {
		return nil
	}
	if e.Loc < 0 || int(e.Loc) >= len(hdr.Decls) {
		return fmt.Errorf("monitor: trace event: location index %d out of range [0,%d)", e.Loc, len(hdr.Decls))
	}
	if e.Kind > WriteRA {
		return fmt.Errorf("monitor: trace event: unknown kind %d", e.Kind)
	}
	want := hdr.Decls[e.Loc].Kind
	var got prog.LocKind
	switch e.Kind {
	case ReadNA, WriteNA:
		got = prog.NonAtomic
	case ReadAT, WriteAT:
		got = prog.Atomic
	default:
		got = prog.ReleaseAcquire
	}
	if got != want {
		return fmt.Errorf("monitor: trace event: %v access on location %q declared %v",
			got, hdr.Decls[e.Loc].Name, want)
	}
	return nil
}

// kindTag is the text-format tag of a location kind.
func kindTag(k prog.LocKind) string {
	switch k {
	case prog.Atomic:
		return "at"
	case prog.ReleaseAcquire:
		return "ra"
	default:
		return "na"
	}
}

// ---- Encoder ----

// TraceWriter encodes an event stream in the wire format. Create one
// with NewTraceWriter (which writes the header), call Write per event,
// and Flush when done.
type TraceWriter struct {
	w      *bufio.Writer
	hdr    Header
	format Format
	buf    [binary.MaxVarintLen64]byte
	// Frame state (see the package comment for the layout).
	frame      []byte
	count      int
	prevThread int32
	prevLoc    []int32
	prevNum    []int64
	// halted[t]: thread t wrote a KindHalt — later events are rejected
	// (the halt promise the monitor's GC relies on). Allocated on the
	// first halt.
	halted []bool
}

// checkHalt enforces the halt promise on a stream position: no event
// after a thread's halt, no double halt. Shared by the encoder and the
// decoders of every format that can carry halts.
func checkHalt(halted *[]bool, threads int, e Event) error {
	if e.Kind == KindHalt {
		if *halted == nil {
			*halted = make([]bool, threads)
		}
		if (*halted)[e.Thread] {
			return fmt.Errorf("monitor: trace event: thread %d halted twice", e.Thread)
		}
		(*halted)[e.Thread] = true
		return nil
	}
	if *halted != nil && (*halted)[e.Thread] {
		return fmt.Errorf("monitor: trace event: thread %d acts after its halt", e.Thread)
	}
	return nil
}

// NewTraceWriter validates the header, writes it to w in the chosen
// format, and returns the event encoder.
func NewTraceWriter(w io.Writer, hdr Header, format Format) (*TraceWriter, error) {
	if err := CheckHeader(hdr); err != nil {
		return nil, err
	}
	tw := &TraceWriter{w: bufio.NewWriter(w), hdr: hdr, format: format}
	switch format {
	case BinaryV2:
		tw.prevLoc = make([]int32, hdr.Threads)
		tw.prevNum = make([]int64, len(hdr.Decls))
		tw.w.Write(appendHeader(append([]byte(binaryMagic), binaryVersion), hdr))
	case Text:
		fmt.Fprintf(tw.w, "%s %d\n", textMagic, textVersion)
		fmt.Fprintf(tw.w, "threads %d\n", hdr.Threads)
		for _, d := range hdr.Decls {
			fmt.Fprintf(tw.w, "loc %s %s\n", d.Name, kindTag(d.Kind))
		}
	default:
		return nil, fmt.Errorf("monitor: unknown trace format %d", format)
	}
	if err := tw.w.Flush(); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *TraceWriter) putUvarint(v uint64) {
	n := binary.PutUvarint(tw.buf[:], v)
	tw.w.Write(tw.buf[:n])
}

// Write encodes one event. Invalid events (out-of-range indices, kind
// mismatching the declared location kind, events after their thread's
// halt) are rejected.
func (tw *TraceWriter) Write(e Event) error {
	if err := validateEvent(tw.hdr, e); err != nil {
		return err
	}
	if err := checkHalt(&tw.halted, tw.hdr.Threads, e); err != nil {
		return err
	}
	switch tw.format {
	case BinaryV2:
		tw.writeV2(e)
	case Text:
		if e.Kind == KindHalt {
			fmt.Fprintf(tw.w, "%d halt\n", e.Thread)
			break
		}
		op := "r"
		if e.Kind.IsWrite() {
			op = "w"
		}
		if e.Kind == ReadRA || e.Kind == WriteRA {
			fmt.Fprintf(tw.w, "%d %s %s %s\n", e.Thread, op, tw.hdr.Decls[e.Loc].Name, e.Time)
		} else {
			fmt.Fprintf(tw.w, "%d %s %s\n", e.Thread, op, tw.hdr.Decls[e.Loc].Name)
		}
	}
	// Buffered write errors surface on Flush (and on buffer drain).
	return nil
}

// writeV2 appends one delta-encoded event to the current frame, flushing
// the frame when it reaches its event budget.
func (tw *TraceWriter) writeV2(e Event) {
	tagPos := len(tw.frame)
	tw.frame = append(tw.frame, 0) // tag, patched below
	tag := byte(e.Kind)
	if e.Thread != tw.prevThread {
		tag |= 1 << 3
		tw.frame = appendVarint(tw.frame, int64(e.Thread)-int64(tw.prevThread))
		tw.prevThread = e.Thread
	}
	if e.Kind != KindHalt {
		d := int64(e.Loc) - int64(tw.prevLoc[e.Thread])
		if d >= -7 && d <= 7 {
			tag |= byte(d+7) << 4
		} else {
			tag |= 15 << 4
			tw.frame = appendVarint(tw.frame, d)
		}
		tw.prevLoc[e.Thread] = e.Loc
		if e.Kind == ReadRA || e.Kind == WriteRA {
			num, den := e.Time.Fraction()
			tw.frame = appendVarint(tw.frame, num-tw.prevNum[e.Loc])
			tw.frame = appendUvarint(tw.frame, uint64(den))
			tw.prevNum[e.Loc] = num
		}
	}
	tw.frame[tagPos] = tag
	tw.count++
	if tw.count >= defaultFrameEvents {
		tw.flushFrame()
	}
}

// flushFrame emits the buffered frame: payload length, event count,
// event bytes. A no-op on an empty frame.
func (tw *TraceWriter) flushFrame() {
	if tw.count == 0 {
		return
	}
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(tw.count))
	tw.putUvarint(uint64(n + len(tw.frame)))
	tw.w.Write(cnt[:n])
	tw.w.Write(tw.frame)
	tw.frame = tw.frame[:0]
	tw.count = 0
}

// appendHeader appends the header fields both binary formats share: the
// trace header after magic and version, and the LDCK header part.
func appendHeader(b []byte, hdr Header) []byte {
	b = appendUvarint(b, uint64(hdr.Threads))
	b = appendUvarint(b, uint64(len(hdr.Decls)))
	for _, d := range hdr.Decls {
		b = appendUvarint(b, uint64(len(d.Name)))
		b = append(b, d.Name...)
		b = append(b, byte(d.Kind))
	}
	return b
}

// readHeader decodes what appendHeader writes, charging each declaration
// against the format's header budget before its name is allocated.
// Errors name the field; the caller adds the context and runs
// CheckHeader.
func readHeader(r headerReader) (Header, error) {
	field := func(what string, max uint64) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		if v > max {
			return 0, fmt.Errorf("%s %d exceeds the limit %d", what, v, max)
		}
		return v, nil
	}
	threads, err := field("thread count", maxWireThreads)
	if err != nil {
		return Header{}, err
	}
	nlocs, err := field("location count", maxWireLocs)
	if err != nil {
		return Header{}, err
	}
	hdr := Header{Threads: int(threads)}
	used := 0
	for i := 0; i < int(nlocs); i++ {
		nameLen, err := field("location name length", maxWireName)
		if err != nil {
			return Header{}, err
		}
		if err := headerBudget(&used, int(nameLen), i); err != nil {
			return Header{}, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Header{}, fmt.Errorf("location name: %w", err)
		}
		kind, err := r.ReadByte()
		if err != nil {
			return Header{}, fmt.Errorf("location kind: %w", io.ErrUnexpectedEOF)
		}
		hdr.Decls = append(hdr.Decls, LocDecl{Name: prog.Loc(name), Kind: prog.LocKind(kind)})
	}
	return hdr, nil
}

// headerReader is what readHeader decodes from: the trace reader's
// buffered reader or the snapshot decoder.
type headerReader interface {
	io.Reader
	io.ByteReader
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], v)]...)
}

// Flush drains any buffered frame and the encoder's buffer to the
// underlying writer.
func (tw *TraceWriter) Flush() error {
	if tw.format == BinaryV2 {
		tw.flushFrame()
	}
	return tw.w.Flush()
}

// ---- Decoder ----

// TraceReader decodes a wire-format trace (either encoding, sniffed from
// the first bytes) and yields validated events a batch at a time through
// NextBatch, its one read verb. Malformed input produces an error, never
// a panic, and never an event the monitor cannot safely consume.
//
// The reader owns the arrays its batches live in: a batch stays valid
// until the next call, as with bufio.Scanner.Bytes. On a binary trace,
// NextBatch keeps at most decodeDepth frames in flight, chained in
// order, while the caller steps the one it returned: each frame decodes
// on a goroutine of its own once its predecessor is done, so there is
// one decoder at a time and frames decode in stream order. The source
// io.Reader may be read on another goroutine between calls, so the
// caller must not touch it while the reader is live. A reader dropped
// mid-stream leaves at most decodeDepth goroutines, each of which exits
// once its frame is decoded, its read fails or its predecessor ended the
// trace; no Close is needed.
type TraceReader struct {
	br   *bufio.Reader
	hdr  Header
	text bool
	line int              // text mode: current line number, for errors
	loc  map[string]int32 // text mode: name → dense index
	// pending is the first event line, read ahead while scanning for the
	// end of the text header's loc section.
	pending    string
	hasPending bool
	// halted[t]: thread t's halt has been decoded — later events of t
	// are malformed (see checkHalt). Allocated on the first halt.
	halted []bool
	// Binary state: the delta context, carried across frames.
	prevThread int32
	prevLoc    []int32
	prevNum    []int64
	// locClass[l] is Kind>>1 of the accesses location l admits (0 na,
	// 1 at, 2 ra) — the binary decoder's one-compare declaration check.
	locClass []uint8
	frameBuf []byte
	// held is the array of the batch returned last, the caller's until
	// the next call, which reuses it for the newest frame it starts.
	held []Event
	// rest is the tail of held that ResumeAt did not skip, returned
	// first by the next call.
	rest []Event
	// ended is set once a call returned ok=false; err is that call's
	// error, nil at a clean end. Every later call returns them again.
	ended bool
	err   error
	// ahead is the FIFO of frames in flight (binary NextBatch), oldest
	// first, read and written on the caller's goroutine only. While it is
	// non-empty the decoder state above (br, the delta context, halted,
	// frameBuf) belongs to its frames' goroutines, each in turn.
	ahead []*aheadFrame
}

// decodeDepth is how many frames NextBatch keeps in flight. A frame's
// goroutine may have to be woken on an idle CPU before it decodes; with
// more than one frame queued that wake-up overlaps Steps of slack
// instead of landing on the critical path. 3 was chosen by measuring 2,
// 3 and 4 with BenchmarkTraceIngest on a 2-CPU host: against one frame
// in flight, hb ran 1.21×, 1.37× and 1.29× as fast (median of 10
// alternating rounds) and short64 1.02×, 1.14× and 1.06×.
const decodeDepth = 3

// aheadFrame is one frame in flight. Its goroutine waits for its
// predecessor's done, decodes unless the predecessor ended the trace,
// stores batch, ok and err, and closes done.
type aheadFrame struct {
	done  chan struct{}
	batch []Event
	ok    bool
	err   error
}

// NewTraceReader sniffs the encoding of r, decodes and validates the
// header, and returns a reader positioned at the first event.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	tr := &TraceReader{br: bufio.NewReader(r)}
	magic, err := tr.br.Peek(len(binaryMagic))
	if err == nil && string(magic) == binaryMagic {
		if err := tr.readBinaryHeader(); err != nil {
			return nil, err
		}
		return tr, nil
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF && len(magic) == 0 {
		// The source failed before yielding a byte (e.g. a verification
		// layer below rejected its first frame). Propagate the real error
		// instead of letting the text parser misread it as a bad header.
		return nil, fmt.Errorf("monitor: trace reader: %w", err)
	}
	tr.text = true
	if err := tr.readTextHeader(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Header returns the decoded trace header.
func (tr *TraceReader) Header() Header { return tr.hdr }

// NewMonitor returns a monitor sized for the trace's header.
func (tr *TraceReader) NewMonitor() *Monitor { return New(tr.hdr.Threads, tr.hdr.Decls) }

// NextBatch decodes and validates the next batch of events: for the
// binary format a whole frame (the natural batch boundary), for text a
// bounded run of lines. ok=false means the end of the trace, with a nil
// error if it is a clean one. The batch lives in an array the reader
// owns and stays valid until the next call. The argument is ignored. A
// bad frame or line yields the events before it with its error. The end
// is sticky: every later call returns the same error and reads nothing.
//
// On a binary trace, at most decodeDepth frames are in flight, chained
// in order: a call that returns frame k tops the FIFO up to frames
// k+1..k+decodeDepth, the newest decoding into the array of the batch
// returned before, and later calls receive them in order. Nothing is
// decoded ahead after an error or the end of the trace, and a bad frame
// yields its valid prefix and its error at the same call as a
// synchronous decode would.
func (tr *TraceReader) NextBatch(_ []Event) ([]Event, bool, error) {
	if tr.ended {
		return nil, false, tr.err
	}
	if len(tr.rest) > 0 {
		batch := tr.rest
		tr.rest = nil
		return batch, true, nil
	}
	var batch []Event
	var ok bool
	var err error
	if tr.text {
		batch, ok, err = tr.textBatch(tr.held[:0])
	} else {
		spare := tr.held[:0]
		if len(tr.ahead) == 0 {
			batch, ok, err = tr.decodeFrame(spare)
			spare = nil
		} else {
			batch, ok, err = tr.awaitAhead()
		}
		for ok && len(tr.ahead) < decodeDepth {
			tr.decodeAhead(spare)
			spare = nil
		}
	}
	tr.held, tr.ended, tr.err = batch, !ok, err
	return batch, ok, err
}

// textBatch decodes up to defaultFrameEvents text events, appending to
// dst. ok=false at the end of the trace or on an error.
func (tr *TraceReader) textBatch(dst []Event) ([]Event, bool, error) {
	for len(dst) < defaultFrameEvents {
		e, ok, err := tr.nextText()
		if err != nil {
			return dst, false, err
		}
		if !ok {
			break
		}
		dst = append(dst, e)
	}
	return dst, len(dst) > 0, nil
}

func (tr *TraceReader) readBinaryHeader() error {
	var magicVer [len(binaryMagic) + 1]byte
	if _, err := io.ReadFull(tr.br, magicVer[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("monitor: trace header: %w", err)
	}
	if ver := magicVer[len(binaryMagic)]; ver != binaryVersion {
		return fmt.Errorf("monitor: trace header: unsupported version %d (have %d)", ver, binaryVersion)
	}
	hdr, err := readHeader(tr.br)
	if err != nil {
		return fmt.Errorf("monitor: trace header: %w", err)
	}
	if err := CheckHeader(hdr); err != nil {
		return err
	}
	tr.hdr = hdr
	tr.prevLoc = make([]int32, hdr.Threads)
	tr.prevNum = make([]int64, len(hdr.Decls))
	// prog.LocKind counts na, at, ra in the order Kind pairs them.
	tr.locClass = make([]uint8, len(hdr.Decls))
	for l, d := range hdr.Decls {
		tr.locClass[l] = uint8(d.Kind)
	}
	return nil
}

// decodeAhead appends a frame to the FIFO, decoding into dst on a
// goroutine of its own once the frame before it in the FIFO is done;
// awaitAhead receives it.
func (tr *TraceReader) decodeAhead(dst []Event) {
	f := &aheadFrame{done: make(chan struct{})}
	var prev *aheadFrame
	if n := len(tr.ahead); n > 0 {
		prev = tr.ahead[n-1]
	}
	tr.ahead = append(tr.ahead, f)
	go func() {
		defer close(f.done)
		if prev != nil {
			<-prev.done
			if !prev.ok {
				return // the trace ended before this frame: read nothing
			}
		}
		f.batch, f.ok, f.err = tr.decodeFrame(dst)
	}()
}

// awaitAhead waits for the oldest frame in flight and takes it off the
// FIFO. If that frame ended the trace, the frames after it read nothing;
// it waits for them too, so the decoder state is the caller's again.
func (tr *TraceReader) awaitAhead() ([]Event, bool, error) {
	f := tr.ahead[0]
	<-f.done
	tr.ahead = slices.Delete(tr.ahead, 0, 1)
	if !f.ok {
		tr.waitAhead()
		tr.ahead = slices.Delete(tr.ahead, 0, len(tr.ahead))
	}
	return f.batch, f.ok, f.err
}

// waitAhead waits until every frame in flight is done, leaving them in
// the FIFO.
func (tr *TraceReader) waitAhead() {
	for _, f := range tr.ahead {
		<-f.done
	}
}

// decodeFrame reads and decodes the next binary frame, appending its
// validated events to dst. ok=false at a clean end of trace (EOF exactly
// at a frame boundary).
func (tr *TraceReader) decodeFrame(dst []Event) ([]Event, bool, error) {
	payloadLen, err := binary.ReadUvarint(tr.br)
	if err != nil {
		if err == io.EOF {
			return dst, false, nil // clean end of trace
		}
		return dst, false, fmt.Errorf("monitor: trace frame length: %w", err)
	}
	if payloadLen == 0 || payloadLen > maxFrameBytes {
		return dst, false, fmt.Errorf("monitor: trace frame: payload length %d out of range (1,%d]", payloadLen, maxFrameBytes)
	}
	if uint64(cap(tr.frameBuf)) < payloadLen {
		tr.frameBuf = make([]byte, payloadLen)
	}
	p := tr.frameBuf[:payloadLen]
	if _, err := io.ReadFull(tr.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return dst, false, fmt.Errorf("monitor: trace frame: %w", err)
	}
	dst, err = tr.decodePayload(p, dst)
	return dst, err == nil, err
}

// decodePayload decodes a frame's payload p (event count, then the
// delta-encoded events), appending the validated events to dst. On a bad
// event it returns the events before it and the error. One loop decodes
// every event with the delta context in locals, written back to tr once,
// at the end of the frame or on an error; a failing event has updated the
// context up to its last passed check. It performs every check
// validateEvent and checkHalt would — the declaration check as one
// compare against locClass — and gives their error text. A failed check
// only records a frameFault and leaves the loop, and faultError formats
// it afterwards, so the loop's common path makes no call (uvarintSlow
// and ts.New inline) around which its locals would be spilled.
func (tr *TraceReader) decodePayload(p []byte, dst []Event) ([]Event, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxFrameEvents {
		return dst, fmt.Errorf("monitor: trace frame: bad event count")
	}
	pos := n
	// Grow dst once by the frame's event count and decode in place. Every
	// event takes at least its tag byte, so a count beyond the payload
	// only sizes dst for one event past the bytes: that event fails as a
	// truncated one, as it would decoding event by event.
	base, fit := len(dst), int(min(count, uint64(len(p)-pos)+1))
	dst = slices.Grow(dst, fit)[:base+fit]
	out := dst[base:]
	// The thread and location counts are len(prevLoc) and len(locClass).
	// The current thread's previous location and halt flag are held in
	// locals as well, swapped only when the thread changes: most events
	// continue their thread's burst.
	prevThread, prevLoc, prevNum := tr.prevThread, tr.prevLoc, tr.prevNum
	locClass, halted := tr.locClass, tr.halted
	curLoc := prevLoc[prevThread]
	curHalted := halted != nil && halted[prevThread]
	var fault frameFault
	var bad int64 // the value the failed check rejected
	i := 0
	for ; i < len(out); i++ {
		if pos >= len(p) {
			fault = faultTag
			break
		}
		tag := p[pos]
		pos++
		kind := Kind(tag & 7)
		if kind > KindHalt {
			fault, bad = faultKind, int64(kind)
			break
		}
		// Varint fields: one-byte values — nearly all of them — decode
		// inline; longer ones go through uvarintSlow.
		var u uint64
		if tag&(1<<3) != 0 {
			if pos < len(p) && p[pos] < 0x80 {
				u, pos = uint64(p[pos]), pos+1
			} else if u, pos = uvarintSlow(p, pos); pos < 0 {
				fault = faultThreadVarint
				break
			}
			thread := int64(prevThread) + unzigzag(u)
			if uint64(thread) >= uint64(len(prevLoc)) {
				fault, bad = faultThread, thread
				break
			}
			prevLoc[prevThread] = curLoc
			prevThread, curLoc = int32(thread), prevLoc[thread]
			curHalted = halted != nil && halted[thread]
		}
		locField := tag >> 4
		if kind == KindHalt {
			if locField != 0 {
				fault = faultHaltLoc
				break
			}
			if curHalted {
				fault, bad = faultHaltTwice, int64(prevThread)
				break
			}
			if halted == nil {
				halted = make([]bool, len(prevLoc))
			}
			halted[prevThread], curHalted = true, true
			out[i] = Event{Thread: prevThread, Kind: KindHalt}
			continue
		}
		d := int64(locField) - 7
		if locField == 15 {
			if pos < len(p) && p[pos] < 0x80 {
				u, pos = uint64(p[pos]), pos+1
			} else if u, pos = uvarintSlow(p, pos); pos < 0 {
				fault = faultLocVarint
				break
			}
			d = unzigzag(u)
		}
		loc := int64(curLoc) + d
		if uint64(loc) >= uint64(len(locClass)) {
			fault, bad = faultLoc, loc
			break
		}
		curLoc = int32(loc)
		// The event is stored before the last two checks: on a failure it
		// lies past the valid prefix.
		if kind == ReadRA || kind == WriteRA {
			if pos < len(p) && p[pos] < 0x80 {
				u, pos = uint64(p[pos]), pos+1
			} else if u, pos = uvarintSlow(p, pos); pos < 0 {
				fault = faultNumVarint
				break
			}
			num := prevNum[loc] + unzigzag(u)
			var den uint64
			if pos < len(p) && p[pos] < 0x80 {
				den, pos = uint64(p[pos]), pos+1
			} else if den, pos = uvarintSlow(p, pos); pos < 0 {
				fault = faultDenVarint
				break
			}
			if den == 0 || den > uint64(math.MaxInt64) {
				fault, bad = faultDen, int64(den)
				break
			}
			prevNum[loc] = num
			out[i] = Event{Thread: prevThread, Loc: curLoc, Kind: kind, Time: ts.New(num, int64(den))}
		} else {
			out[i] = Event{Thread: prevThread, Loc: curLoc, Kind: kind}
		}
		if locClass[loc] != uint8(kind>>1) {
			fault = faultDecl
			break
		}
		if curHalted {
			fault, bad = faultHalted, int64(prevThread)
			break
		}
	}
	prevLoc[prevThread] = curLoc
	tr.prevThread, tr.halted = prevThread, halted
	if fault != faultNone {
		return dst[:base+i], tr.faultError(fault, bad, out[i])
	}
	if pos != len(p) {
		return dst, fmt.Errorf("monitor: trace frame: %d trailing bytes after %d events", len(p)-pos, count)
	}
	return dst, nil
}

// A frameFault names the check an event failed in decodePayload.
type frameFault uint8

const (
	faultNone frameFault = iota
	faultTag
	faultKind
	faultThreadVarint
	faultThread
	faultHaltLoc
	faultHaltTwice
	faultLocVarint
	faultLoc
	faultNumVarint
	faultDenVarint
	faultDen
	faultDecl
	faultHalted
)

// faultError is the error of a failed decodePayload check, given the
// value the check rejected (a kind, thread, location or denominator) and,
// for the declaration check, the event.
func (tr *TraceReader) faultError(f frameFault, bad int64, e Event) error {
	switch f {
	case faultTag:
		return fmt.Errorf("monitor: trace frame: truncated event (missing tag)")
	case faultKind:
		return fmt.Errorf("monitor: trace event: unknown kind %d", bad)
	case faultThreadVarint:
		return fmt.Errorf("monitor: trace event: bad thread delta varint")
	case faultThread:
		return fmt.Errorf("monitor: trace event: thread %d out of range [0,%d)", bad, tr.hdr.Threads)
	case faultHaltLoc:
		return fmt.Errorf("monitor: trace event: halt with nonzero location field")
	case faultHaltTwice:
		return fmt.Errorf("monitor: trace event: thread %d halted twice", bad)
	case faultLocVarint:
		return fmt.Errorf("monitor: trace event: bad location delta varint")
	case faultLoc:
		return fmt.Errorf("monitor: trace event: location index %d out of range [0,%d)", bad, len(tr.hdr.Decls))
	case faultNumVarint:
		return fmt.Errorf("monitor: trace event: bad timestamp delta varint")
	case faultDenVarint:
		return fmt.Errorf("monitor: trace event: bad timestamp denominator varint")
	case faultDen:
		return fmt.Errorf("monitor: trace event timestamp: denominator %d out of range", uint64(bad))
	case faultDecl:
		return validateEvent(tr.hdr, e)
	default: // faultHalted
		return fmt.Errorf("monitor: trace event: thread %d acts after its halt", bad)
	}
}

// uvarintSlow decodes the uvarint at p[pos:], returning the value and
// the offset after it, or a negative offset if it is truncated or
// overflows (as binary.Uvarint rejects it). Small enough to inline, it
// adds no call to the decode loop.
func uvarintSlow(p []byte, pos int) (uint64, int) {
	var x uint64
	for s := uint(0); pos < len(p); s += 7 {
		b := p[pos]
		pos++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1
			}
			return x | uint64(b)<<s, pos
		}
		if s == 63 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value (as
// binary.Varint does).
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// readLine returns the next non-blank, non-comment text line, trimmed,
// with ok=false at EOF.
func (tr *TraceReader) readLine() (string, bool, error) {
	for {
		raw, err := tr.rawLine()
		if len(raw) == 0 && err != nil {
			if err == io.EOF {
				return "", false, nil
			}
			return "", false, err
		}
		tr.line++
		line := string(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line, true, nil
		}
		if err == io.EOF {
			return "", false, nil
		}
	}
}

// rawLine reads through the next '\n', failing as soon as more than
// maxTextLine bytes have arrived without one, so an unterminated line
// costs at most maxTextLine plus one buffer. The result is valid until
// the next read.
func (tr *TraceReader) rawLine() ([]byte, error) {
	line, err := tr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line = slices.Clone(line)
		for err == bufio.ErrBufferFull && len(line) <= maxTextLine {
			var frag []byte
			frag, err = tr.br.ReadSlice('\n')
			line = append(line, frag...)
		}
	}
	if len(line) > maxTextLine {
		return nil, fmt.Errorf("monitor: trace line %d: longer than %d bytes", tr.line+1, maxTextLine)
	}
	return line, err
}

func (tr *TraceReader) textErr(format string, args ...any) error {
	return fmt.Errorf("monitor: trace line %d: %s", tr.line, fmt.Sprintf(format, args...))
}

func (tr *TraceReader) readTextHeader() error {
	line, ok, err := tr.readLine()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("monitor: empty trace (no %q line)", textMagic)
	}
	f := strings.Fields(line)
	if len(f) != 2 || f[0] != textMagic {
		return tr.textErr("not a trace: want %q, got %q", textMagic+" 1", line)
	}
	if f[1] != strconv.Itoa(textVersion) {
		return tr.textErr("unsupported version %s (have %d)", f[1], textVersion)
	}
	line, ok, err = tr.readLine()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("monitor: trace header: missing threads line")
	}
	f = strings.Fields(line)
	if len(f) != 2 || f[0] != "threads" {
		return tr.textErr("want \"threads N\", got %q", line)
	}
	threads, err := strconv.Atoi(f[1])
	if err != nil {
		return tr.textErr("bad thread count %q", f[1])
	}
	hdr := Header{Threads: threads}
	tr.loc = map[string]int32{}
	used := 0
	for {
		line, ok, err = tr.readLine()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !strings.HasPrefix(line, "loc ") {
			// First event line: hand it back to nextText.
			tr.pending, tr.hasPending = line, true
			break
		}
		f = strings.Fields(line)
		if len(f) != 3 {
			return tr.textErr("want \"loc NAME na|at|ra\", got %q", line)
		}
		var kind prog.LocKind
		switch f[2] {
		case "na":
			kind = prog.NonAtomic
		case "at":
			kind = prog.Atomic
		case "ra":
			kind = prog.ReleaseAcquire
		default:
			return tr.textErr("unknown location kind %q", f[2])
		}
		if len(hdr.Decls) >= maxWireLocs {
			return tr.textErr("more than %d locations", maxWireLocs)
		}
		if err := headerBudget(&used, len(f[1]), len(hdr.Decls)); err != nil {
			return tr.textErr("%v", err)
		}
		tr.loc[f[1]] = int32(len(hdr.Decls))
		hdr.Decls = append(hdr.Decls, LocDecl{Name: prog.Loc(f[1]), Kind: kind})
	}
	if err := CheckHeader(hdr); err != nil {
		return err
	}
	tr.hdr = hdr
	return nil
}

func (tr *TraceReader) nextText() (Event, bool, error) {
	var line string
	if tr.hasPending {
		line, tr.hasPending = tr.pending, false
	} else {
		var ok bool
		var err error
		line, ok, err = tr.readLine()
		if err != nil || !ok {
			return Event{}, false, err
		}
	}
	f := strings.Fields(line)
	if len(f) != 2 && len(f) != 3 && len(f) != 4 {
		return Event{}, false, tr.textErr("want \"THREAD r|w LOC [TIME]\" or \"THREAD halt\", got %q", line)
	}
	thread, err := strconv.Atoi(f[0])
	if err != nil || thread < 0 || thread >= tr.hdr.Threads {
		return Event{}, false, tr.textErr("thread %q out of range [0,%d)", f[0], tr.hdr.Threads)
	}
	if len(f) == 2 {
		if f[1] != "halt" {
			return Event{}, false, tr.textErr("want \"THREAD r|w LOC [TIME]\" or \"THREAD halt\", got %q", line)
		}
		e := Event{Thread: int32(thread), Kind: KindHalt}
		if err := checkHalt(&tr.halted, tr.hdr.Threads, e); err != nil {
			return Event{}, false, tr.textErr("%v", err)
		}
		return e, true, nil
	}
	var write bool
	switch f[1] {
	case "r":
	case "w":
		write = true
	default:
		return Event{}, false, tr.textErr("unknown op %q (want r|w)", f[1])
	}
	loc, ok := tr.loc[f[2]]
	if !ok {
		return Event{}, false, tr.textErr("undeclared location %q", f[2])
	}
	e := Event{Thread: int32(thread), Loc: loc}
	isRA := tr.hdr.Decls[loc].Kind == prog.ReleaseAcquire
	if isRA != (len(f) == 4) {
		if isRA {
			return Event{}, false, tr.textErr("release-acquire access to %q needs a timestamp", f[2])
		}
		return Event{}, false, tr.textErr("timestamp on non-release-acquire location %q", f[2])
	}
	if isRA {
		e.Time, err = parseTime(f[3])
		if err != nil {
			return Event{}, false, tr.textErr("bad timestamp %q: %v", f[3], err)
		}
	}
	switch tr.hdr.Decls[loc].Kind {
	case prog.Atomic:
		e.Kind = ReadAT
		if write {
			e.Kind = WriteAT
		}
	case prog.ReleaseAcquire:
		e.Kind = ReadRA
		if write {
			e.Kind = WriteRA
		}
	default:
		e.Kind = ReadNA
		if write {
			e.Kind = WriteNA
		}
	}
	if err := checkHalt(&tr.halted, tr.hdr.Threads, e); err != nil {
		return Event{}, false, tr.textErr("%v", err)
	}
	return e, true, nil
}

// parseTime parses "num" or "num/den" into a rational timestamp.
func parseTime(s string) (ts.Time, error) {
	numS, denS, frac := strings.Cut(s, "/")
	num, err := strconv.ParseInt(numS, 10, 64)
	if err != nil {
		return ts.Time{}, fmt.Errorf("bad numerator: %v", err)
	}
	den := int64(1)
	if frac {
		den, err = strconv.ParseInt(denS, 10, 64)
		if err != nil {
			return ts.Time{}, fmt.Errorf("bad denominator: %v", err)
		}
		if den <= 0 {
			return ts.Time{}, fmt.Errorf("denominator must be positive")
		}
	}
	return ts.New(num, den), nil
}

// ---- Convenience entry points ----

// MonitorReader runs a fresh monitor over a wire-format trace stream in
// one bounded-memory pass and returns it (for Reports, RAStats, Events).
func MonitorReader(r io.Reader) (*Monitor, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	m := tr.NewMonitor()
	for {
		batch, ok, err := tr.NextBatch(nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			return m, nil
		}
		m.StepBatch(batch)
	}
}

// ReadRaces monitors a wire-format trace from r and returns the
// deduplicated race reports.
func ReadRaces(r io.Reader) ([]race.Report, error) {
	m, err := MonitorReader(r)
	if err != nil {
		return nil, err
	}
	return m.Reports(), nil
}
