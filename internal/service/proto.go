package service

// The racemond wire protocol, layered under the LDTR trace format:
//
//	client → server:  "racemond 1 session <id>\n"
//	server → client:  "ok <events>\n"            admitted; <events> is the
//	                                             server's recovered event
//	                                             count (0 = fresh session)
//	                  "busy retry-after <ms>\n"  shed (session cap reached,
//	                                             checkpoint backpressure, or
//	                                             the session is attached on
//	                                             another connection); retry
//	                  "err <message>\n"          protocol/config error; fatal
//	client → server:  CRC-framed trace bytes (see below), then one
//	                  zero-length END chunk
//	server → client:  "done <json>\n"            the final SessionResult
//	                  "err <message>\n"          ingest failed; reconnect and
//	                                             resume
//
// Trace bytes travel in checksummed chunks: uvarint length (1..maxChunk),
// 4 little-endian bytes of CRC-32C (Castagnoli), payload. A zero length
// is the END marker and carries no CRC. The chunk layer exists for fault
// containment, not framing economy: a torn TCP stream, a flipped byte or
// a truncated upload is detected HERE, before any byte reaches the trace
// decoder, so corruption and disconnection collapse into the same safe
// failure mode — drop the live session state and resume from the newest
// checkpoint. Without it, a flipped byte inside a v2 delta frame can
// decode into well-formed wrong events and poison every later
// checkpoint. Resume is count-based (the client replays its trace from
// byte 0 and the server skips the events the checkpoint covers), so the
// chunk boundaries of a retry need not match the original — only the
// deframed event stream must.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"localdrf/internal/race"
)

const (
	protoMagic   = "racemond"
	protoVersion = 1
	// maxChunk bounds one checksummed chunk; the client's chunker splits
	// larger writes.
	maxChunk = 1 << 20
	// maxLine bounds protocol lines (handshake and responses). The done
	// line carries the report JSON, so it is generous.
	maxLine = 1 << 20
	// maxSessionID bounds the session identifier.
	maxSessionID = 64
)

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64, so the chunk layer costs ~1 cycle/byte).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// validSessionID reports whether id is acceptable: 1..maxSessionID
// characters of [A-Za-z0-9._-], not starting with a dot (session ids
// name checkpoint directories; dot-prefixed names are reserved for the
// ring's temp files).
func validSessionID(id string) bool {
	if id == "" || len(id) > maxSessionID || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// readLine reads one \n-terminated protocol line, bounded by maxLine: it
// fails once more than maxLine bytes arrive without a '\n', having read
// at most one buffer past the limit.
func readLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxLine {
			return "", fmt.Errorf("service: protocol line exceeds %d bytes", maxLine)
		}
		if err != bufio.ErrBufferFull {
			if err != nil {
				return "", err
			}
			return strings.TrimSuffix(string(line), "\n"), nil
		}
	}
}

// parseHandshake validates "racemond 1 session <id>".
func parseHandshake(line string) (id string, err error) {
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != protoMagic || f[2] != "session" {
		return "", fmt.Errorf("service: bad handshake %q (want %q)", line, protoMagic+" 1 session <id>")
	}
	if f[1] != strconv.Itoa(protoVersion) {
		return "", fmt.Errorf("service: unsupported protocol version %s (have %d)", f[1], protoVersion)
	}
	if !validSessionID(f[3]) {
		return "", fmt.Errorf("service: invalid session id %q (1..%d chars of [A-Za-z0-9._-], no leading dot)", f[3], maxSessionID)
	}
	return f[3], nil
}

// Chunk-layer errors, distinguished so the server can count what the
// fault actually was.
var (
	// ErrChunkCorrupt: a chunk's payload failed its CRC — bytes were
	// altered in flight.
	ErrChunkCorrupt = errors.New("service: chunk CRC mismatch (corrupt stream)")
	// ErrTruncated: the stream ended without the zero-length END chunk —
	// the peer disconnected mid-upload.
	ErrTruncated = errors.New("service: stream truncated before end-of-stream marker")
)

// chunkReader deframes and verifies the checksummed chunk stream,
// presenting the raw trace bytes as an io.Reader. It returns io.EOF
// only at a verified END marker; a disconnection surfaces as
// ErrTruncated and a checksum failure as ErrChunkCorrupt, so the trace
// decoder above can never consume damaged bytes.
type chunkReader struct {
	br    *bufio.Reader
	buf   []byte
	pos   int
	ended bool
	// err is sticky: once a chunk fails verification, every later Read
	// fails the same way and no byte of the damaged chunk is ever
	// delivered — a reader that retried past the error could otherwise
	// consume the poisoned payload.
	err error
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	for cr.pos >= len(cr.buf) {
		if cr.err != nil {
			return 0, cr.err
		}
		if cr.ended {
			return 0, io.EOF
		}
		if err := cr.fill(); err != nil {
			cr.err = err
			cr.buf = nil
			return 0, err
		}
	}
	n := copy(p, cr.buf[cr.pos:])
	cr.pos += n
	return n, nil
}

// fill reads and verifies the next chunk (or the END marker).
func (cr *chunkReader) fill() error {
	length, err := binary.ReadUvarint(cr.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	if length == 0 {
		cr.ended = true
		return nil
	}
	if length > maxChunk {
		return fmt.Errorf("service: chunk length %d exceeds the limit %d", length, maxChunk)
	}
	var sum [4]byte
	if _, err := io.ReadFull(cr.br, sum[:]); err != nil {
		return ErrTruncated
	}
	if uint64(cap(cr.buf)) < length {
		cr.buf = make([]byte, length)
	}
	cr.buf = cr.buf[:length]
	if _, err := io.ReadFull(cr.br, cr.buf); err != nil {
		return ErrTruncated
	}
	if crc32.Checksum(cr.buf, castagnoli) != binary.LittleEndian.Uint32(sum[:]) {
		return ErrChunkCorrupt
	}
	cr.pos = 0
	return nil
}

// chunkWriter frames each Write as one checksummed chunk (splitting
// writes larger than maxChunk). End emits the END marker.
type chunkWriter struct {
	w   io.Writer
	hdr [binary.MaxVarintLen64 + 4]byte
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		part := p
		if len(part) > maxChunk {
			part = part[:maxChunk]
		}
		n := binary.PutUvarint(cw.hdr[:], uint64(len(part)))
		binary.LittleEndian.PutUint32(cw.hdr[n:], crc32.Checksum(part, castagnoli))
		if _, err := cw.w.Write(cw.hdr[:n+4]); err != nil {
			return written, err
		}
		n2, err := cw.w.Write(part)
		written += n2
		if err != nil {
			return written, err
		}
		p = p[len(part):]
	}
	return written, nil
}

func (cw *chunkWriter) End() error {
	_, err := cw.w.Write([]byte{0})
	return err
}

// RaceJSON is one deduplicated race report in the response, in the
// shape racemon's -json emits.
type RaceJSON = race.ReportJSON

// SessionResult is the final "done" payload of one session: the
// deterministic outcome of monitoring the whole uploaded trace. For a
// given trace it is byte-identical no matter how many disconnections,
// corruptions or server restarts the session rode through — the chaos
// harness asserts exactly that.
type SessionResult struct {
	Session     string     `json:"session"`
	Events      uint64     `json:"events"`
	RaceCount   int        `json:"race_count"`
	Races       []RaceJSON `json:"races"`
	RALive      int        `json:"ra_live"`
	RAPeak      int        `json:"ra_peak"`
	RACollected uint64     `json:"ra_collected"`
	// Resumed counts how many times this session was re-attached after
	// its first admission, counting an admission that recovered from a
	// checkpoint an earlier server process wrote (0 for an uninterrupted
	// run). Excluded from parity comparisons — it describes the journey,
	// not the outcome.
	Resumed int `json:"resumed,omitempty"`
}

// canonical returns the result with journey-dependent fields cleared —
// the byte-comparable outcome.
func (r SessionResult) canonical() SessionResult {
	r.Resumed = 0
	return r
}

// CanonicalJSON renders the journey-independent part of the result as
// canonical JSON, the unit of the chaos harness's byte-identical
// comparison.
func (r SessionResult) CanonicalJSON() []byte {
	b, err := json.Marshal(r.canonical())
	if err != nil {
		panic("service: SessionResult marshal cannot fail: " + err.Error())
	}
	return b
}

// JSON renders the full result (journey fields included) — the payload
// of the server's done line.
func (r SessionResult) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic("service: SessionResult marshal cannot fail: " + err.Error())
	}
	return b
}
