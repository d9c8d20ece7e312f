package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/service"
)

// parse registers every flag on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("racemond", flag.ContinueOnError)
	o := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestServeFlagsReachConfig: each serve-mode flag lands in the
// service.Config the server is built from.
func TestServeFlagsReachConfig(t *testing.T) {
	o := parse(t, "-ckpt", "dir", "-ckpt-every", "7", "-ckpt-ring", "5", "-max-sessions", "9", "-shards", "2",
		"-read-timeout", "3s", "-idle-timeout", "4m", "-retry-after", "250ms")
	want := service.Config{
		CheckpointDir: "dir", CheckpointEvery: 7, CheckpointRing: 5, MaxSessions: 9, Shards: 2,
		ReadTimeout: 3 * time.Second, IdleTimeout: 4 * time.Minute, RetryAfter: 250 * time.Millisecond,
	}
	if !reflect.DeepEqual(o.svc, want) {
		t.Fatalf("service config %+v, want %+v", o.svc, want)
	}
}

// TestDriveHalts: under the unfair policy, some threads run to
// completion within 20000 events; the drive's traces carry their
// retirement events only with -halts.
func TestDriveHalts(t *testing.T) {
	halts := func(args ...string) int {
		o := parse(t, append([]string{"-drive", "1", "-events", "20000", "-policy", "unfair"}, args...)...)
		tr, err := monitor.NewTraceReader(bytes.NewReader(o.drive.genTrace(0)))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			batch, ok, err := tr.NextBatch(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
			for _, e := range batch {
				if e.Kind == monitor.KindHalt {
					n++
				}
			}
		}
	}
	if n := halts(); n != 0 {
		t.Fatalf("without -halts: %d halt events", n)
	}
	if n := halts("-halts"); n == 0 {
		t.Fatal("with -halts: no halt events")
	}
}

// TestSeedBaseNamesSession: a drive against an in-process server names
// its session after -seed-base.
func TestSeedBaseNamesSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{})
	go srv.Serve(ln)
	defer srv.Close()
	o := parse(t, "-drive", "1", "-events", "1000", "-seed-base", "7")
	doc, err := o.drive.run(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Sessions) != 1 || doc.Sessions[0].Session != "drive-7" || doc.Sessions[0].Events != 1000 {
		t.Fatalf("sessions %+v, want one 1000-event session drive-7", doc.Sessions)
	}
}

// TestFlagErrorsCLI: flag values that would panic the generator, be
// silently replaced by defaults, or leave the server shedding every
// session exit 2 before anything runs — no panic, no golden written.
// The address is one nothing listens on and -attempts is 1, so a
// missed check fails fast instead of serving or retrying.
func TestFlagErrorsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "racemond")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	golden := filepath.Join(dir, "drive.golden.json")
	drive := []string{"-addr", "127.0.0.1:1", "-attempts", "1", "-drive", "1", "-events", "1000",
		"-golden", golden, "-update-golden"}
	for _, args := range [][]string{
		append(drive, "-locs", "0"),
		append(drive, "-threads", "0"),
		append(drive, "-threads", "1100"),
		append(drive, "-events", "0"),
		append(drive, "-ra", "-1"),
		append(drive, "-stale", "101"),
		append(drive, "-stale", "-5"),
		append(drive, "-policy", "lifo"),
		append(drive, "-locs", "60000", "-threads", "2", "-atomics", "0", "-ra", "0"), // header over 1 MiB
		append(drive, "-backoff", "-1s"),
		{"-addr", "127.0.0.1:0", "-max-sessions", "-1"},
		{"-addr", "127.0.0.1:0", "-ckpt-ring", "-1"},
		{"-addr", "127.0.0.1:0", "-shards", "-2"},
		{"-addr", "127.0.0.1:0", "-read-timeout", "-1s"},
		{"-addr", "127.0.0.1:0", "-idle-timeout", "-1m"},
		{"-addr", "127.0.0.1:0", "-retry-after", "-1ms"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("racemond %v: err=%v, want exit 2\n%s", args, err, stderr.String())
		}
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("racemond %v panicked:\n%s", args, stderr.String())
		}
		if _, err := os.Stat(golden); !os.IsNotExist(err) {
			t.Fatalf("racemond %v wrote the golden (stat: %v)", args, err)
		}
	}
}
