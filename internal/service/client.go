package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client streams one trace session to a racemond server, riding through
// disconnects, server restarts and busy shedding with bounded
// exponential backoff. Resume needs no client-side state: every attempt
// replays the trace from byte 0 (Source returns a fresh reader) and the
// server skips the events its newest checkpoint covers — so the client is
// trivially correct and the durability problem lives entirely on the
// server, where the checkpoints are.
type Client struct {
	// Addr is the server's host:port.
	Addr string
	// Session names the session; retries must reuse the name (that IS
	// the resume key).
	Session string
	// Source returns a fresh reader over the complete trace bytes —
	// called once per attempt.
	Source func() (io.Reader, error)
	// Attempts bounds connection attempts, including the first
	// (default 10).
	Attempts int
	// Backoff is the initial retry delay (default 50ms), doubled per
	// retry up to MaxBackoff (default 2s). A server busy reply raises
	// the next delay to at least its retry-after hint.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// DialTimeout bounds each dial (default 5s); RespTimeout bounds
	// waiting for the handshake reply and the final done line
	// (default 60s).
	DialTimeout time.Duration
	RespTimeout time.Duration
	// ChunkSize is the CRC-chunk payload size (default 64 KiB).
	ChunkSize int
	// WrapConn, when non-nil, wraps each attempt's connection — the
	// chaos harness's injection point (attempt counts from 0, so a
	// fault plan can hit the first attempt and spare the retries).
	WrapConn func(attempt int, conn net.Conn) net.Conn
	// Sleep replaces time.Sleep in tests (nil = real sleep).
	Sleep func(time.Duration)
}

func (c *Client) withDefaults() Client {
	out := *c
	if out.Attempts == 0 {
		out.Attempts = 10
	}
	if out.Backoff == 0 {
		out.Backoff = 50 * time.Millisecond
	}
	if out.MaxBackoff == 0 {
		out.MaxBackoff = 2 * time.Second
	}
	if out.DialTimeout == 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.RespTimeout == 0 {
		out.RespTimeout = 60 * time.Second
	}
	if out.ChunkSize == 0 {
		out.ChunkSize = 64 << 10
	}
	if out.Sleep == nil {
		out.Sleep = time.Sleep
	}
	return out
}

// errFatal marks protocol/config errors no retry can fix.
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// Run streams the session to completion and returns the server's final
// result. Retryable failures (dial errors, disconnects, busy shedding,
// mid-stream errors) are retried with backoff up to Attempts; protocol
// errors ("err" handshake replies) are fatal.
func (c *Client) Run() (*SessionResult, error) {
	cc := c.withDefaults()
	backoff := cc.Backoff
	// hint is a server retry-after that raises the NEXT delay only; the
	// exponential series keeps doubling on its own track. (Folding the
	// hint into backoff itself would ratchet the series: one generous
	// hint would become the base every later delay doubles from.)
	var hint time.Duration
	var lastErr error
	for attempt := 0; attempt < cc.Attempts; attempt++ {
		if attempt > 0 {
			delay := backoff
			if hint > delay {
				delay = hint
			}
			hint = 0
			cc.Sleep(delay)
			if backoff *= 2; backoff > cc.MaxBackoff {
				backoff = cc.MaxBackoff
			}
		}
		res, retryAfter, err := cc.attempt(attempt)
		if err == nil {
			return res, nil
		}
		var fatal errFatal
		if errors.As(err, &fatal) {
			return nil, fatal.err
		}
		hint = retryAfter
		lastErr = err
	}
	return nil, fmt.Errorf("service: session %s failed after %d attempts: %w", cc.Session, cc.Attempts, lastErr)
}

// attempt runs one connection attempt: handshake, stream, result.
func (cc *Client) attempt(attempt int) (*SessionResult, time.Duration, error) {
	raw, err := net.DialTimeout("tcp", cc.Addr, cc.DialTimeout)
	if err != nil {
		return nil, 0, err
	}
	conn := raw
	if cc.WrapConn != nil {
		conn = cc.WrapConn(attempt, raw)
	}
	defer conn.Close()

	if _, err := fmt.Fprintf(conn, "%s %d session %s\n", protoMagic, protoVersion, cc.Session); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(conn)
	raw.SetReadDeadline(time.Now().Add(cc.RespTimeout))
	line, err := readLine(br)
	if err != nil {
		return nil, 0, err
	}
	switch verb, rest, _ := strings.Cut(line, " "); verb {
	case "ok":
		// rest is the server's recovered event count — informative only.
		_ = rest
	case "busy":
		return nil, parseRetryAfter(rest), fmt.Errorf("service: server busy (%s)", rest)
	case "err":
		return nil, 0, errFatal{fmt.Errorf("service: server rejected session: %s", rest)}
	default:
		return nil, 0, errFatal{fmt.Errorf("service: bad handshake reply %q", line)}
	}

	src, err := cc.Source()
	if err != nil {
		return nil, 0, errFatal{fmt.Errorf("service: trace source: %w", err)}
	}
	raw.SetReadDeadline(time.Time{})
	// Plain read/write loop rather than io.Copy: Copy would delegate to
	// the source's WriteTo and stream the whole trace as one giant
	// chunk, defeating ChunkSize's purpose (granular frames, so server
	// progress and fault positions interleave at chunk resolution).
	cw := &chunkWriter{w: conn}
	buf := make([]byte, cc.ChunkSize)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := cw.Write(buf[:n]); werr != nil {
				return nil, 0, werr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, 0, errFatal{fmt.Errorf("service: trace source: %w", rerr)}
		}
	}
	if err := cw.End(); err != nil {
		return nil, 0, err
	}

	raw.SetReadDeadline(time.Now().Add(cc.RespTimeout))
	line, err = readLine(br)
	if err != nil {
		return nil, 0, err
	}
	verb, rest, _ := strings.Cut(line, " ")
	switch verb {
	case "done":
		var res SessionResult
		if err := json.Unmarshal([]byte(rest), &res); err != nil {
			return nil, 0, errFatal{fmt.Errorf("service: bad done payload: %w", err)}
		}
		return &res, 0, nil
	case "err":
		// Mid-stream server-side failure (corruption detected, timeout):
		// the session reverts to its newest checkpoint; retry resumes it.
		return nil, 0, fmt.Errorf("service: ingest failed server-side: %s", rest)
	default:
		return nil, 0, fmt.Errorf("service: bad final reply %q", line)
	}
}

// parseRetryAfter extracts the millisecond hint from "retry-after <ms>".
func parseRetryAfter(rest string) time.Duration {
	f := strings.Fields(rest)
	if len(f) == 2 && f[0] == "retry-after" {
		if ms, err := strconv.Atoi(f[1]); err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return 0
}
