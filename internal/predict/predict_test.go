package predict

import (
	"bytes"
	"fmt"
	"testing"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

func TestParse(t *testing.T) {
	good := []struct {
		in   string
		want Spec
	}{
		{"hb", Spec{Pred: monitor.PredHB}},
		{"syncp", Spec{Pred: monitor.PredSyncP}},
		{"short:1", Spec{Pred: monitor.PredShort, K: 1}},
		{"short:64", Spec{Pred: monitor.PredShort, K: 64}},
	}
	for _, tc := range good {
		got, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.in {
			t.Fatalf("Parse(%q).String() = %q", tc.in, got.String())
		}
	}
	for _, in := range []string{"", "short", "short:", "short:0", "short:-3", "short:x", "sp", "HB", "hb "} {
		if _, err := Parse(in); err == nil {
			t.Fatalf("Parse(%q): want error", in)
		}
	}
}

// corpusEvents generates one deterministic synthetic trace: a scaled
// program with all three location kinds and a schedgen schedule.
func corpusEvents(t testing.TB, seed int64, pol schedgen.Policy, max int) (*monitor.Table, []monitor.Event) {
	cfg := progsynth.ScaledConfig{
		Threads: 4, Iters: 40, OpsPerIter: 5,
		NonAtomic: 6, Atomics: 2, RAs: 2,
		WritePct: 45, SyncPct: 30, MaxConst: 3,
	}
	p := progsynth.Scaled(seed, cfg)
	tb := monitor.NewTable(p)
	events, _, err := schedgen.Generate(p, tb, schedgen.Options{
		Policy: pol, Seed: seed*7 + 1, MaxEvents: max,
		StaleReadPct: 30, EmitHalts: seed%2 == 0,
	}, nil)
	if err != nil {
		t.Fatalf("schedgen: %v", err)
	}
	return tb, events
}

func monitorReports(tb *monitor.Table, spec Spec, events []monitor.Event) []race.Report {
	m := monitor.New(tb.Threads(), tb.Decls())
	m.SetGCInterval(32) // tight GC so collection/pruning is exercised
	spec.Apply(m)
	m.StepBatch(events)
	return m.Reports()
}

// TestReferenceMatchesMonitor differentially tests the package's slow
// all-pairs reference decider against the streaming monitor, for every
// predicate, over a mixed corpus of synthetic traces.
func TestReferenceMatchesMonitor(t *testing.T) {
	specs := []Spec{
		{Pred: monitor.PredHB},
		{Pred: monitor.PredSyncP},
		{Pred: monitor.PredShort, K: 1},
		{Pred: monitor.PredShort, K: 7},
		{Pred: monitor.PredShort, K: 64},
		{Pred: monitor.PredShort, K: 100_000},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, pol := range []schedgen.Policy{schedgen.Fair, schedgen.Unfair, schedgen.Bursty} {
			tb, events := corpusEvents(t, seed, pol, 600)
			for _, spec := range specs {
				want := Races(spec, tb.Threads(), tb.Decls(), events)
				got := monitorReports(tb, spec, events)
				if !race.ReportsEqual(got, want) {
					t.Fatalf("seed %d %v %v: monitor %v, reference %v",
						seed, pol, spec, got, want)
				}
			}
		}
	}
}

// TestPredicateLattice checks the containments the definitions promise on
// every trace: hb ⊆ short:k ⊆ syncp, short monotone in k, and short with
// k ≥ the trace length equal to syncp.
func TestPredicateLattice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tb, events := corpusEvents(t, seed, schedgen.Fair, 500)
		th, decls := tb.Threads(), tb.Decls()
		hb := Races(Spec{Pred: monitor.PredHB}, th, decls, events)
		syncp := Races(Spec{Pred: monitor.PredSyncP}, th, decls, events)
		if !subset(hb, syncp) {
			t.Fatalf("seed %d: hb ⊄ syncp: %v vs %v", seed, hb, syncp)
		}
		prev := []race.Report(nil)
		for _, k := range []int{1, 4, 16, 128, len(events)} {
			short := Races(Spec{Pred: monitor.PredShort, K: k}, th, decls, events)
			if !subset(short, syncp) {
				t.Fatalf("seed %d k=%d: short ⊄ syncp", seed, k)
			}
			if !subset(prev, short) {
				t.Fatalf("seed %d k=%d: short not monotone in k", seed, k)
			}
			prev = short
		}
		full := Races(Spec{Pred: monitor.PredShort, K: len(events)}, th, decls, events)
		if !race.ReportsEqual(full, syncp) {
			t.Fatalf("seed %d: short:len != syncp: %v vs %v", seed, full, syncp)
		}
	}
}

func subset(a, b []race.Report) bool {
	in := make(map[race.Report]bool, len(b))
	for _, r := range b {
		in[r] = true
	}
	for _, r := range a {
		if !in[r] {
			return false
		}
	}
	return true
}

// FuzzPredict decodes an arbitrary wire-format trace and cross-checks
// the streaming monitor against the reference decider for the syncp and
// short:k predicates. Seeds are real corpus traces in the binary
// format, each with and without thread-retirement (halt) events.
func FuzzPredict(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := progsynth.ScaledConfig{
			Threads: 3, Iters: 20, OpsPerIter: 4,
			NonAtomic: 4, Atomics: 2, RAs: 1,
			WritePct: 50, SyncPct: 25, MaxConst: 2,
		}
		p := progsynth.Scaled(seed, cfg)
		tb := monitor.NewTable(p)
		for _, halts := range []bool{false, true} {
			var buf bytes.Buffer
			opt := schedgen.Options{
				Policy: schedgen.Bursty, Seed: seed, MaxEvents: 300,
				StaleReadPct: 25, EmitHalts: halts,
			}
			if _, _, err := schedgen.Encode(&buf, p, tb, opt, monitor.BinaryV2); err != nil {
				f.Fatalf("encode: %v", err)
			}
			f.Add(buf.Bytes(), uint16(seed*13))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		tr, err := monitor.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		hdr := tr.Header()
		if hdr.Threads > 8 || len(hdr.Decls) > 32 {
			t.Skip()
		}
		const maxEvents = 2048
		var events []monitor.Event
		for len(events) < maxEvents {
			batch, ok, err := tr.NextBatch(nil)
			if err != nil || !ok {
				break // the events before an error are still a legal trace
			}
			events = append(events, batch...)
		}
		if len(events) > maxEvents {
			events = events[:maxEvents]
		}
		k := int(kRaw)%256 + 1
		for _, spec := range []Spec{
			{Pred: monitor.PredSyncP},
			{Pred: monitor.PredShort, K: k},
		} {
			want := Races(spec, hdr.Threads, hdr.Decls, events)
			m := monitor.New(hdr.Threads, hdr.Decls)
			m.SetGCInterval(64)
			spec.Apply(m)
			m.StepBatch(events)
			if got := m.Reports(); !race.ReportsEqual(got, want) {
				t.Fatalf("%v: monitor %v, reference %v", spec, got, want)
			}
		}
	})
}

// TestSpecStringFormat pins the flag spellings racemon documents.
func TestSpecStringFormat(t *testing.T) {
	if s := (Spec{Pred: monitor.PredShort, K: 64}).String(); s != "short:64" {
		t.Fatalf("short spec String() = %q", s)
	}
	if s := fmt.Sprint(Spec{Pred: monitor.PredSyncP}); s != "syncp" {
		t.Fatalf("syncp spec String() = %q", s)
	}
}
