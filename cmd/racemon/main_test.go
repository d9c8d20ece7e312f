package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestStaticFilterDecision pins the -static-prefilter interactions:
// hard errors for -emit and plain -trace (the flag analyses the
// generated program), a warning — never silence — for -trace -resume
// (resuming a prefiltered run is legitimate, but the mask cannot be
// reconstructed from a trace).
func TestStaticFilterDecision(t *testing.T) {
	cases := []struct {
		name                 string
		prefilter            bool
		trace, emit, resume  string
		fatalHas, warningHas string
	}{
		{name: "off", trace: "t.ldtr", resume: "s.ldck"},
		{name: "generated", prefilter: true},
		{name: "emit-fatal", prefilter: true, emit: "t.ldtr", fatalHas: "-emit"},
		{name: "trace-fatal", prefilter: true, trace: "t.ldtr", fatalHas: "-trace"},
		{name: "resume-warns", prefilter: true, trace: "t.ldtr", resume: "s.ldck", warningHas: "unfiltered"},
	}
	for _, tc := range cases {
		fatal, warn := staticFilterDecision(tc.prefilter, tc.trace, tc.emit, tc.resume)
		if tc.fatalHas == "" && fatal != "" {
			t.Errorf("%s: unexpected fatal %q", tc.name, fatal)
		}
		if tc.fatalHas != "" && !strings.Contains(fatal, tc.fatalHas) {
			t.Errorf("%s: fatal %q does not mention %s", tc.name, fatal, tc.fatalHas)
		}
		if tc.warningHas == "" && warn != "" {
			t.Errorf("%s: unexpected warning %q", tc.name, warn)
		}
		if tc.warningHas != "" && !strings.Contains(warn, tc.warningHas) {
			t.Errorf("%s: warning %q does not mention %s", tc.name, warn, tc.warningHas)
		}
	}
}

// buildRacemon builds the binary once per test run.
func buildRacemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "racemon")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStaticPrefilterResumeCLI runs the real binary through the
// satellite scenario: resuming a checkpointed -trace run with
// -static-prefilter must warn on stderr and proceed (exit 0), while a
// plain -trace with the flag stays a hard configuration error.
func TestStaticPrefilterResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, "-events", "2000", "-emit", trace).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "snap.ldck")
	if out, err := exec.Command(bin, "-trace", trace, "-checkpoint", ck, "-checkpoint-at", "1000").CombinedOutput(); err != nil {
		t.Fatalf("checkpoint: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-trace", trace, "-resume", ck, "-static-prefilter")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resume with -static-prefilter must warn, not fail: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-static-prefilter ignored") {
		t.Fatalf("no warning on stderr:\n%s", stderr.String())
	}

	cmd = exec.Command(bin, "-trace", trace, "-static-prefilter")
	stderr.Reset()
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("plain -trace with -static-prefilter: err=%v, want exit 2\n%s", err, stderr.String())
	}
}

// TestPredicateResumeCLI: a checkpoint taken under -predicate short:16
// must resume under short:16 with no flags repeated, and a conflicting
// -predicate must lose with a warning (the restored window state only
// means anything under the checkpointed predicate).
func TestPredicateResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, "-events", "4000", "-emit", trace).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "snap.ldck")
	if out, err := exec.Command(bin, "-trace", trace, "-predicate", "short:16",
		"-checkpoint", ck, "-checkpoint-at", "2000").CombinedOutput(); err != nil {
		t.Fatalf("checkpoint: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-trace", trace, "-resume", ck, "-json").Output()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(string(out), `"predicate": "short:16"`) {
		t.Fatalf("resumed run did not keep the checkpointed predicate:\n%s", out)
	}

	cmd := exec.Command(bin, "-trace", trace, "-resume", ck, "-predicate", "syncp")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("conflicting -predicate on resume must warn, not fail: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-predicate syncp ignored") ||
		!strings.Contains(stderr.String(), "short:16") {
		t.Fatalf("no override warning on stderr:\n%s", stderr.String())
	}
}

// TestGeneratedFlagsCLI: generation flags the generator or the wire
// format cannot carry exit 2 before anything runs — no panic, and no
// checkpoint file left behind by a run that monitored the whole stream
// first.
func TestGeneratedFlagsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.ldck")
	for _, args := range [][]string{
		{"-threads", "1100", "-checkpoint", ck},
		{"-threads", "1100"},
		{"-threads", "0"},
		{"-locs", "0"},
		{"-events", "0"},
		{"-atomics", "-1"},
		{"-private-locs", "70000"},
		{"-emit", filepath.Join(dir, "t.ldtr"), "-checkpoint", ck},
		{"-stream"},
		{"-stale", "101"},
		{"-skew", "NaN"},
		{"-emit", filepath.Join(dir, "t.ldtr"), "-stale", "101"},
	} {
		// The case's own flags come last, so they win over the default.
		wantExit2(t, bin, append([]string{"-events", "1000"}, args...)...)
		for _, f := range []string{ck, filepath.Join(dir, "t.ldtr")} {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Fatalf("racemon %v left %s behind (stat: %v)", args, filepath.Base(f), err)
			}
		}
	}
}

// output runs the binary and returns its stdout.
func output(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	return out
}

// TestWorkloadFlagsCLI: each generation flag without an error-path-only
// test changes what is generated — a flag the binary ignored would
// leave the emitted trace as it was.
func TestWorkloadFlagsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	emit := func(args ...string) []byte {
		return output(t, bin, append([]string{"-events", "20000", "-emit", "-", "-format", "text"}, args...)...)
	}
	count := func(trace []byte, suffix string) int {
		n := 0
		for _, line := range strings.Split(string(trace), "\n") {
			if strings.HasSuffix(line, suffix) {
				n++
			}
		}
		return n
	}
	if n := count(emit("-ra", "3"), " ra"); n != 3 {
		t.Errorf("-ra 3: header declares %d ra locations, want 3", n)
	}
	if bytes.Equal(emit("-stale", "0"), emit("-stale", "100")) {
		t.Error("-stale 0 and -stale 100 emit the same trace")
	}
	if bytes.Equal(emit("-skew", "0"), emit("-skew", "1.2")) {
		t.Error("-skew 0 and -skew 1.2 emit the same trace")
	}
	// Under the unfair policy some threads run to completion within
	// 20000 events; only -halts records their retirement.
	if n := count(emit("-policy", "unfair"), " halt"); n != 0 {
		t.Errorf("without -halts: %d halt lines", n)
	}
	if n := count(emit("-policy", "unfair", "-halts"), " halt"); n == 0 {
		t.Error("with -halts: no halt lines")
	}
}

// summary is the part of the -json summary these tests read.
type summary struct {
	Events    int               `json:"events"`
	Completed bool              `json:"completed"`
	RaceCount int               `json:"race_count"`
	Races     []json.RawMessage `json:"races"`
	Locations map[string]int    `json:"locations"`
}

func jsonSummary(t *testing.T, bin string, args ...string) summary {
	t.Helper()
	var s summary
	out := output(t, bin, append(args, "-json")...)
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatalf("racemon %v: %v\n%s", args, err, out)
	}
	return s
}

// TestMaxRacesCLI: -max-races caps the listed reports, not the count.
func TestMaxRacesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	s := jsonSummary(t, buildRacemon(t), "-events", "20000", "-max-races", "3")
	if len(s.Races) != 3 || s.RaceCount <= 3 {
		t.Fatalf("-max-races 3: %d races listed of %d, want 3 of more than 3", len(s.Races), s.RaceCount)
	}
}

// TestLocationsCLI: the generated run, its -emit and the -trace of the
// emitted file report the same location counts, thread-private
// locations included (8 threads × 4 on top of the 48 shared ones).
func TestLocationsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	trace := filepath.Join(t.TempDir(), "t.ldtr")
	work := []string{"-events", "20000", "-private-locs", "4", "-private-pct", "60"}
	want := map[string]int{"nonatomic": 48 + 8*4, "atomic": 8, "ra": 8}
	for _, args := range [][]string{work, append(work, "-emit", trace), {"-trace", trace}} {
		if got := jsonSummary(t, bin, args...).Locations; !reflect.DeepEqual(got, want) {
			t.Errorf("racemon %v: locations %v, want %v", args, got, want)
		}
	}
}

// TestOneCheckpointFormCLI: a -checkpoint-at stop inside a wire frame
// (event 5000 of 4096-event frames) writes one set of bytes along every
// route there — the generated run, -trace over the binary or the text
// trace, and -resume of an earlier checkpoint over either — at -shards
// 1 and 4, and the checkpoint taken over the binary trace resumes over
// the text trace to the unbroken run's reports.
func TestOneCheckpointFormCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	gen := []string{"-events", "20000", "-threads", "8", "-policy", "bursty"}
	binTrace, txtTrace := filepath.Join(dir, "t.ldtr"), filepath.Join(dir, "t.txt")
	output(t, bin, append(gen, "-emit", binTrace)...)
	output(t, bin, append(gen, "-emit", txtTrace, "-format", "text")...)
	early := filepath.Join(dir, "early.ldck")
	output(t, bin, append(gen, "-checkpoint", early, "-checkpoint-at", "2000")...)
	routes := [][]string{
		gen,
		{"-trace", binTrace},
		{"-trace", txtTrace},
		{"-trace", binTrace, "-resume", early},
		{"-trace", txtTrace, "-resume", early},
	}
	var want []byte
	for i, args := range routes {
		for _, shards := range []string{"1", "4"} {
			ck := filepath.Join(dir, fmt.Sprintf("ck-%d-%s.ldck", i, shards))
			output(t, bin, append(args, "-shards", shards, "-checkpoint", ck, "-checkpoint-at", "5000")...)
			got, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("racemon %v -shards %s: checkpoint differs from the generated run's (%d vs %d bytes)", args, shards, len(got), len(want))
			}
		}
	}
	unbroken := jsonSummary(t, bin, "-trace", binTrace)
	resumed := jsonSummary(t, bin, "-trace", txtTrace, "-resume", filepath.Join(dir, "ck-1-1.ldck"))
	if !reflect.DeepEqual(resumed, unbroken) {
		t.Fatalf("binary-trace checkpoint resumed over the text trace: %+v, want %+v", resumed, unbroken)
	}
}

// TestResumePastCheckpointAtCLI: a run resumed at or past its
// -checkpoint-at stops at once and checkpoints at the resumed index.
func TestResumePastCheckpointAtCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace, at := filepath.Join(dir, "t.ldtr"), filepath.Join(dir, "at.ldck")
	output(t, bin, "-events", "20000", "-emit", trace)
	output(t, bin, "-trace", trace, "-checkpoint", at, "-checkpoint-at", "5000")
	want, err := os.ReadFile(at)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []string{"5000", "1000"} {
		again := filepath.Join(dir, "again-"+stop+".ldck")
		s := jsonSummary(t, bin, "-trace", trace, "-resume", at, "-checkpoint", again, "-checkpoint-at", stop)
		if s.Events != 5000 || s.Completed {
			t.Errorf("-checkpoint-at %s after a resume at 5000: %d events, completed %v; want 5000, false", stop, s.Events, s.Completed)
		}
		if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, want) {
			t.Errorf("-checkpoint-at %s after a resume at 5000: checkpoint differs from the resumed one (%v)", stop, err)
		}
	}
}

// wantExit2 runs the binary and requires exit status 2 without a panic.
func wantExit2(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%s %v: err=%v, want exit 2\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	if strings.Contains(stderr.String(), "panic") {
		t.Errorf("%s %v panicked:\n%s", filepath.Base(bin), args, stderr.String())
	}
}
