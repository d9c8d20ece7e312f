package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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
		append(drive, "-policy", "lifo"),
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
