package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// FuzzHandshake: the first line a client sends goes through readLine and
// parseHandshake. Neither may panic, an accepted id must be a valid
// session id, and the canonical handshake for it must parse back to it.
func FuzzHandshake(f *testing.F) {
	for _, seed := range []string{
		"racemond 1 session abc\n",
		"racemond 1 session a.b_c-9\nrest",
		"racemond 2 session x\n",
		"racemond 1 session ../escape\n",
		"racemond 1 session .hidden\n",
		"racemond 1 session " + strings.Repeat("a", 65) + "\n",
		"racemond 1 session abc",
		"racemond  1\tsession  abc \n",
		"GET / HTTP/1.1\r\n",
		"\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, err := readLine(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if strings.Contains(line, "\n") || len(line) > maxLine {
			t.Fatalf("readLine returned %q", line)
		}
		id, err := parseHandshake(line)
		if err != nil {
			return
		}
		if !validSessionID(id) {
			t.Fatalf("accepted invalid session id %q from %q", id, line)
		}
		if again, err := parseHandshake(protoMagic + " 1 session " + id); err != nil || again != id {
			t.Fatalf("canonical handshake for %q parsed to %q, %v", id, again, err)
		}
	})
}

// chunk frames one payload as the chunk layer does.
func chunk(p []byte) []byte {
	var buf bytes.Buffer
	cw := &chunkWriter{w: &buf}
	cw.Write(p)
	return buf.Bytes()
}

// verifiedPrefix is the reference deframer: the concatenated payloads of
// the chunks that verify, up to the first one that does not, and
// whether the END marker was reached.
func verifiedPrefix(data []byte) (payload []byte, ended bool) {
	for {
		length, n := binary.Uvarint(data)
		if n <= 0 {
			return payload, false
		}
		data = data[n:]
		if length == 0 {
			return payload, true
		}
		if length > maxChunk || uint64(len(data)) < 4+length {
			return payload, false
		}
		p := data[4 : 4+length]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[:4]) {
			return payload, false
		}
		payload = append(payload, p...)
		data = data[4+length:]
	}
}

// FuzzChunkReader: the chunk layer must never panic and never deliver a
// byte of a chunk that failed its CRC — what it delivers is exactly the
// verified prefix — and it returns io.EOF only at the END marker. Any
// other error is sticky.
func FuzzChunkReader(f *testing.F) {
	valid := append(append(chunk([]byte("LDTR trace bytes")), chunk(bytes.Repeat([]byte{7}, 300))...), 0)
	flipped := bytes.Clone(valid)
	flipped[2] ^= 0x40 // a CRC byte of the first chunk
	flippedPayload := bytes.Clone(valid)
	flippedPayload[len(valid)-10] ^= 1 // a payload byte of the second chunk
	oversize := binary.AppendUvarint(nil, maxChunk+1)
	for _, seed := range [][]byte{
		valid, flipped, flippedPayload, oversize,
		append(oversize, make([]byte, 8)...),
		valid[:len(valid)-1], // no END marker
		valid[:3],            // inside the first CRC
		valid[:20],           // inside the first payload
		{0},
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ended := verifiedPrefix(data)
		cr := &chunkReader{br: bufio.NewReader(bytes.NewReader(data))}
		buf := make([]byte, 1+len(data)%13)
		var got []byte
		var err error
		for err == nil {
			var n int
			n, err = cr.Read(buf)
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %d bytes, the verified prefix is %d bytes", len(got), len(want))
		}
		if ended != (err == io.EOF) {
			t.Fatalf("END marker reached = %v, but Read returned %v", ended, err)
		}
		if n, again := cr.Read(buf); n != 0 || !errors.Is(again, err) {
			t.Fatalf("Read after %v returned %d bytes, %v", err, n, again)
		}
	})
}
