package service

// Hardening regressions: the retry-after backoff ratchet, /stats under
// concurrent scrapers, and the protocol line bound.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// busyServer accepts connections and sheds every one: the first with a
// retry-after hint, the rest with a bare busy. Returns the address.
func busyServer(t *testing.T, hintMS int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn, hinted bool) {
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
				if hinted {
					fmt.Fprintf(c, "busy retry-after %d\n", hintMS)
				} else {
					fmt.Fprint(c, "busy\n")
				}
			}(conn, first)
			first = false
		}
	}()
	return ln.Addr().String()
}

// TestBackoffHintAppliesOnce: a server retry-after hint raises the next
// retry delay only; the exponential series keeps doubling from its own
// base. The regression this pins: folding the hint into the backoff
// variable made it the new base, so one generous hint (80ms against a
// 10ms base) turned the tail into 160ms, 320ms, ... instead of
// returning to the 20ms, 40ms series.
func TestBackoffHintAppliesOnce(t *testing.T) {
	addr := busyServer(t, 80)
	var delays []time.Duration
	c := &Client{
		Addr: addr, Session: "hint",
		Source:   func() (io.Reader, error) { return strings.NewReader(""), nil },
		Attempts: 4, Backoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Second,
		Sleep: func(d time.Duration) { delays = append(delays, d) },
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("all-busy server: want an error")
	}
	want := []time.Duration{80 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("got %d delays %v, want %v", len(delays), delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delay sequence %v, want %v (hint must not ratchet the series)", delays, want)
		}
	}
}

// TestStatsHandlerConcurrent hammers the /stats endpoint (aggregate and
// per-session views) from four goroutines while a session is live. Run
// under -race it pins that scrapes share no unsynchronised state with
// each other or with the session.
func TestStatsHandlerConcurrent(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 5_000})
	// Hold a live attached session open for the duration of the hammer:
	// completed sessions are evicted, so the per-session view needs an
	// in-flight one.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s %d session hammer\n", protoMagic, protoVersion)
	if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.HasPrefix(line, "ok") {
		t.Fatalf("handshake: %q %v", line, err)
	}
	h := s.StatsHandler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				url := "/stats"
				if (g+i)%2 == 1 {
					url = "/stats?session=hammer"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 {
					t.Errorf("goroutine %d: %s -> %d", g, url, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// floodReader yields n bytes of 'a' with no newline, counting the bytes
// it hands out.
type floodReader struct{ n, read int }

func (f *floodReader) Read(p []byte) (int, error) {
	if f.read >= f.n {
		return 0, io.EOF
	}
	k := min(len(p), f.n-f.read)
	for i := range p[:k] {
		p[i] = 'a'
	}
	f.read += k
	return k, nil
}

// TestReadLineBounded: an unterminated protocol line fails once it
// passes maxLine, having read at most one buffer beyond it, instead of
// buffering whatever the peer sends.
func TestReadLineBounded(t *testing.T) {
	const bufSize = 64 << 10 // the server's connection buffer
	f := &floodReader{n: maxLine + 2<<20}
	if _, err := readLine(bufio.NewReaderSize(f, bufSize)); err == nil {
		t.Fatal("unterminated oversized line accepted")
	}
	if f.read > maxLine+bufSize {
		t.Fatalf("read %d bytes of an unterminated line, want at most %d", f.read, maxLine+bufSize)
	}
	// A line of exactly maxLine bytes, newline included, still reads.
	line := strings.Repeat("a", maxLine-1) + "\n"
	if got, err := readLine(bufio.NewReaderSize(strings.NewReader(line), bufSize)); err != nil || len(got) != maxLine-1 {
		t.Fatalf("maxLine-byte line: %d bytes, %v", len(got), err)
	}
}
