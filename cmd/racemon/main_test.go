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
// the flag analyses the generated program, so it is a hard error
// wherever the monitored stream is not one of that program's traces —
// -emit, -trace with or without -resume, and -skew.
func TestStaticFilterDecision(t *testing.T) {
	cases := []struct {
		name        string
		prefilter   bool
		trace, emit string
		skew        float64
		fatalHas    string
	}{
		{name: "off", trace: "t.ldtr", skew: 1.2},
		{name: "generated", prefilter: true},
		{name: "emit-fatal", prefilter: true, emit: "t.ldtr", fatalHas: "-emit"},
		{name: "trace-fatal", prefilter: true, trace: "t.ldtr", fatalHas: "-trace"},
		{name: "skew-fatal", prefilter: true, skew: 1.2, fatalHas: "-skew"},
	}
	for _, tc := range cases {
		fatal := staticFilterDecision(tc.prefilter, tc.trace, tc.emit, tc.skew)
		if tc.fatalHas == "" && fatal != "" {
			t.Errorf("%s: unexpected fatal %q", tc.name, fatal)
		}
		if tc.fatalHas != "" && !strings.Contains(fatal, tc.fatalHas) {
			t.Errorf("%s: fatal %q does not mention %s", tc.name, fatal, tc.fatalHas)
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

// TestStaticPrefilterResumeCLI: a snapshot does not record a static
// prefilter, and needs not: a -static-prefilter run's checkpoint
// resumes over the -emit trace of the same workload, unfiltered, to the
// uninterrupted filtered run's report set. -static-prefilter itself is
// a configuration error with -trace, with or without -resume.
func TestStaticPrefilterResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	work := []string{"-events", "20000", "-threads", "4", "-policy", "bursty", "-private-locs", "4", "-private-pct", "60"}
	golden := filepath.Join(dir, "golden.json")
	if out, err := exec.Command(bin, append(work, "-static-prefilter", "-golden", golden, "-update-golden")...).CombinedOutput(); err != nil {
		t.Fatalf("filtered run: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "snap.ldck")
	if out, err := exec.Command(bin, append(work, "-static-prefilter", "-checkpoint", ck, "-checkpoint-at", "10000")...).CombinedOutput(); err != nil {
		t.Fatalf("filtered checkpoint: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, append(work, "-emit", trace)...).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}
	if s := jsonSummary(t, bin, "-trace", trace, "-resume", ck, "-golden", golden); s.RaceCount == 0 || s.Events != 20000 {
		t.Fatalf("unfiltered resume: %d races over %d events, want the golden's over 20000", s.RaceCount, s.Events)
	}
	wantExit2(t, bin, "-trace", trace, "-resume", ck, "-static-prefilter")
	wantExit2(t, bin, "-trace", trace, "-static-prefilter")
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
		// -skew sends accesses outside the program's traces, which the
		// static certificate does not cover.
		{"-skew", "1.2", "-static-prefilter", "-checkpoint", ck},
		{"-skew", "1.2", "-static-prefilter", "-private-locs", "4", "-private-pct", "60"},
		// Each field within its limit, the header over the format's
		// 1 MiB budget.
		{"-locs", "60000", "-threads", "2", "-atomics", "0", "-ra", "0"},
		{"-emit", filepath.Join(dir, "t.ldtr"), "-locs", "60000", "-threads", "2", "-atomics", "0", "-ra", "0"},
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
	Shards    int               `json:"shards"`
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

// TestShardsCLI: the summary's shards are the back-ends that ran, in
// the JSON and the text line alike — 1 under short:k, whose window runs
// in the front-end at any -shards, and Open's clamp to the nonatomic
// location count on a -trace run.
func TestShardsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	trace := filepath.Join(t.TempDir(), "t.ldtr")
	output(t, bin, "-events", "20000", "-locs", "2", "-emit", trace)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-events", "20000", "-shards", "4"}, 4},
		{[]string{"-events", "20000", "-predicate", "short:64", "-shards", "4"}, 1},
		{[]string{"-trace", trace, "-shards", "4"}, 2}, // 2 nonatomic locations
		{[]string{"-trace", trace}, 1},
	} {
		if got := jsonSummary(t, bin, tc.args...).Shards; got != tc.want {
			t.Errorf("racemon %v: JSON shards %d, want %d", tc.args, got, tc.want)
		}
		if line := fmt.Sprintf(" %d shard(s),", tc.want); !strings.Contains(string(output(t, bin, tc.args...)), line) {
			t.Errorf("racemon %v: text summary lacks %q", tc.args, line)
		}
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
