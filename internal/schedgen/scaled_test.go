package schedgen

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"localdrf/internal/prog"
)

func smallScaled() Scaled {
	return Scaled{Seed: 3, Events: 1000, Threads: 4, Policy: Bursty, Locs: 6, Atomics: 2, RAs: 2, Stale: 10}
}

// TestScaledCheck: every workload the generator or the wire format
// cannot carry is refused by Check, and the ends of each range pass.
func TestScaledCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Scaled)
		want string // "" = accepted
	}{
		{"valid", func(*Scaled) {}, ""},
		{"events-0", func(s *Scaled) { s.Events = 0 }, "must be ≥ 1"},
		{"threads-0", func(s *Scaled) { s.Threads = 0 }, "must be ≥ 1"},
		{"locs-0", func(s *Scaled) { s.Locs = 0 }, "must be ≥ 1"},
		{"atomics-neg", func(s *Scaled) { s.Atomics = -1 }, "must be ≥ 1"},
		{"ra-neg", func(s *Scaled) { s.RAs = -1 }, "must be ≥ 1"},
		{"private-locs-neg", func(s *Scaled) { s.PrivateLocs = -1 }, "must be ≥ 1"},
		{"atomics-0", func(s *Scaled) { s.Atomics = 0 }, ""},
		{"stale-101", func(s *Scaled) { s.Stale = 101 }, "0..100"},
		{"stale-neg", func(s *Scaled) { s.Stale = -5 }, "0..100"},
		{"stale-0", func(s *Scaled) { s.Stale = 0 }, ""},
		{"stale-100", func(s *Scaled) { s.Stale = 100 }, ""},
		{"private-pct-101", func(s *Scaled) { s.PrivatePct = 101 }, "0..100"},
		{"private-pct-neg", func(s *Scaled) { s.PrivatePct = -1 }, "0..100"},
		{"private-pct-100", func(s *Scaled) { s.PrivateLocs, s.PrivatePct = 2, 100 }, ""},
		{"skew-nan", func(s *Scaled) { s.Skew = math.NaN() }, "skew"},
		{"skew-inf", func(s *Scaled) { s.Skew = math.Inf(1) }, "skew"},
		{"skew-neg", func(s *Scaled) { s.Skew = -0.5 }, "skew"},
		{"skew-1.2", func(s *Scaled) { s.Skew = 1.2 }, ""},
		{"threads-over-header", func(s *Scaled) { s.Threads = 1100 }, "thread"},
		{"private-over-header", func(s *Scaled) { s.PrivateLocs = 70000 }, "location"},
		{"private-saturates", func(s *Scaled) { s.Threads, s.PrivateLocs = 1000, math.MaxInt }, "location"},
	} {
		s := smallScaled()
		tc.edit(&s)
		err := s.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Check() = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestScaledFlags: the shared flags keep the value's fields as their
// defaults, write through to the fields, and refuse a bad policy while
// parsing.
func TestScaledFlags(t *testing.T) {
	s := smallScaled()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Flags(fs)
	if got := fs.Lookup("policy").DefValue; got != "bursty" {
		t.Fatalf("-policy default = %q, want bursty", got)
	}
	if got := fs.Lookup("events").DefValue; got != "1000" {
		t.Fatalf("-events default = %q, want 1000", got)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 8 {
		t.Fatalf("Flags registered %d flags, want 8", n)
	}
	if err := fs.Parse(strings.Fields("-events 77 -threads 3 -policy unfair -locs 5 -atomics 1 -ra 4 -stale 30 -halts")); err != nil {
		t.Fatal(err)
	}
	want := Scaled{Seed: 3, Events: 77, Threads: 3, Policy: Unfair, Locs: 5, Atomics: 1, RAs: 4, Stale: 30, Halts: true}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}

	bad := flag.NewFlagSet("t", flag.ContinueOnError)
	bad.SetOutput(io.Discard)
	s.Flags(bad)
	if err := bad.Parse([]string{"-policy", "lifo"}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("-policy lifo: err = %v, want unknown policy", err)
	}
}

// TestScaledProgramOptions: the program declares exactly the requested
// pools, thread-private ones included, and the options carry every
// schedule field.
func TestScaledProgramOptions(t *testing.T) {
	s := smallScaled()
	s.PrivateLocs, s.PrivatePct, s.Halts, s.Skew = 2, 50, true, 1.2
	tb, name := s.Program()
	if name != "scaled-3" || tb.Threads() != 4 {
		t.Fatalf("program %q with %d threads, want scaled-3 with 4", name, tb.Threads())
	}
	kinds := map[prog.LocKind]int{}
	for _, d := range tb.Decls() {
		kinds[d.Kind]++
	}
	if kinds[prog.NonAtomic] != 6+4*2 || kinds[prog.Atomic] != 2 || kinds[prog.ReleaseAcquire] != 2 {
		t.Fatalf("declared %v, want 14 nonatomic, 2 atomic, 2 ra", kinds)
	}
	want := Options{Policy: Bursty, Seed: 3, MaxEvents: 1000, StaleReadPct: 10, EmitHalts: true, LocSkew: 1.2}
	if got := s.Options(); got != want {
		t.Fatalf("Options() = %+v, want %+v", got, want)
	}
	// Sized by IterationsFor: no thread halts before Events.
	if ev, completed, err := Generate(tb.Program(), tb, s.Options(), nil); err != nil || completed || len(ev) != s.Events {
		t.Fatalf("Generate: %d events, completed=%v, err=%v; want %d, not completed", len(ev), completed, err, s.Events)
	}
}
