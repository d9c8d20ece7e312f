// Package race implements the data-race and local-DRF machinery of §4 of
// the paper: happens-before over traces (def. 8), conflicting transitions
// (def. 9), data races (def. 10), L-sequential transitions (def. 11),
// L-stability (def. 12), and executable checks of the local DRF theorem
// (thm. 13) and the derived global DRF theorem (thm. 14).
package race

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"localdrf/internal/core"
	"localdrf/internal/explore"
	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// LocSet is a set L of locations, the parameter of local DRF.
type LocSet map[prog.Loc]bool

// NewLocSet builds a LocSet.
func NewLocSet(locs ...prog.Loc) LocSet {
	s := LocSet{}
	for _, l := range locs {
		s[l] = true
	}
	return s
}

// AllLocs returns the set of every location of a program; with this L,
// L-sequential = sequentially consistent and local DRF specialises to
// global DRF (§5).
func AllLocs(p *prog.Program) LocSet {
	s := LocSet{}
	for l := range p.Locs {
		s[l] = true
	}
	return s
}

// HappensBefore computes the happens-before relation of a trace (def. 8):
// the smallest transitive relation relating Ti to Tj (i < j) when they are
// on the same thread, or when Ti writes and Tj reads or writes the same
// atomic location. For the §10 release-acquire extension the
// synchronisation edge is narrower, matching the operational frontier
// flow: an RA write happens-before exactly the RA reads that read from it
// (same location, same timestamp) — not later RA writes or other readers.
func HappensBefore(tr explore.Trace) rel.Rel {
	n := len(tr)
	r := rel.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if tr[i].Thread == tr[j].Thread {
				r.Set(i, j)
			}
			if tr[i].Loc != tr[j].Loc || !tr[i].IsWrite {
				continue
			}
			switch {
			case tr[i].RA && tr[j].RA:
				if !tr[j].IsWrite && tr[i].Time.Equal(tr[j].Time) {
					r.Set(i, j) // release/acquire reads-from edge
				}
			case tr[i].Atomic && tr[j].Atomic:
				r.Set(i, j)
			}
		}
	}
	return r.TransitiveClosure()
}

// Race identifies a racing pair of transition indices in a trace.
type Race struct {
	I, J int
}

// RacingPairs returns every data race in a trace (def. 10): conflicting
// transitions Ti, Tj with i < j where Ti does not happen-before Tj.
func RacingPairs(tr explore.Trace) []Race {
	hb := HappensBefore(tr)
	var out []Race
	for i := 0; i < len(tr); i++ {
		for j := i + 1; j < len(tr); j++ {
			if tr[i].Conflicts(tr[j]) && !hb.Has(i, j) {
				out = append(out, Race{I: i, J: j})
			}
		}
	}
	return out
}

// HasRace reports whether the trace contains any data race.
func HasRace(tr explore.Trace) bool { return len(RacingPairs(tr)) > 0 }

// Races returns the distinct data races of a single trace, deduplicated
// by location, thread pair and access kinds and sorted canonically — the
// per-trace analogue of FindRaces' program-wide report set. It is the
// exhaustive oracle the streaming monitor (internal/monitor) is
// differentially tested against: on any trace, monitor.Reports must equal
// Races exactly.
func Races(tr explore.Trace) []Report {
	set := map[Report]bool{}
	for _, rc := range RacingPairs(tr) {
		set[Report{
			Loc:     tr[rc.I].Loc,
			ThreadI: tr[rc.I].Thread,
			ThreadJ: tr[rc.J].Thread,
			WriteI:  tr[rc.I].IsWrite,
			WriteJ:  tr[rc.J].IsWrite,
		}] = true
	}
	return sortedReports(set)
}

// IsSC reports whether a trace is sequentially consistent (def. 7): it
// contains no weak transitions.
func IsSC(tr explore.Trace) bool {
	for _, t := range tr {
		if t.Weak {
			return false
		}
	}
	return true
}

// LSequential reports whether a transition is L-sequential (def. 11): not
// weak, or weak on a location outside L.
func LSequential(t core.Transition, L LocSet) bool {
	return !t.Weak || !L[t.Loc]
}

// Report describes one race found in some trace of a program.
type Report struct {
	Loc     prog.Loc
	ThreadI int
	ThreadJ int
	WriteI  bool
	WriteJ  bool
}

func (r Report) String() string {
	return fmt.Sprintf("race on %s: T%d %s vs T%d %s",
		r.Loc, r.ThreadI, opName(r.WriteI), r.ThreadJ, opName(r.WriteJ))
}

// ReportJSON is the JSON shape of a Report, the one cmd/racemon's -json
// summary and goldens and racemond's session results share.
type ReportJSON struct {
	Loc     string `json:"loc"`
	ThreadI int    `json:"thread_i"`
	ThreadJ int    `json:"thread_j"`
	OpI     string `json:"op_i"`
	OpJ     string `json:"op_j"`
}

// JSON returns the report in its JSON shape.
func (r Report) JSON() ReportJSON {
	return ReportJSON{
		Loc: string(r.Loc), ThreadI: r.ThreadI, ThreadJ: r.ThreadJ,
		OpI: opName(r.WriteI), OpJ: opName(r.WriteJ),
	}
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// FindRaces explores traces of p and returns the distinct races found
// (deduplicated by location, threads and access kinds). scOnly restricts
// the search to SC traces — the premise of the global DRF theorem talks
// about races in sequentially consistent traces. The trace scan is
// partitioned across parallel workers; reports are merged and returned in
// a deterministic order.
func FindRaces(p *prog.Program, scOnly bool, maxTraces int) ([]Report, error) {
	par := runtime.GOMAXPROCS(0)
	sinks := make([]map[Report]bool, par)
	for i := range sinks {
		sinks[i] = map[Report]bool{}
	}
	err := explore.ScanTraces(p, explore.Options{SCOnly: scOnly}, maxTraces, par,
		func(worker int, tr explore.Trace) bool {
			for _, rc := range RacingPairs(tr) {
				sinks[worker][Report{
					Loc:     tr[rc.I].Loc,
					ThreadI: tr[rc.I].Thread,
					ThreadJ: tr[rc.J].Thread,
					WriteI:  tr[rc.I].IsWrite,
					WriteJ:  tr[rc.J].IsWrite,
				}] = true
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	merged := map[Report]bool{}
	for _, s := range sinks {
		for rep := range s {
			merged[rep] = true
		}
	}
	return sortedReports(merged), nil
}

// sortedReports flattens a report set into the canonical order.
func sortedReports(set map[Report]bool) []Report {
	out := make([]Report, 0, len(set))
	for rep := range set {
		out = append(out, rep)
	}
	SortReports(out)
	return out
}

// ReportsEqual reports whether two canonical report slices (both in
// SortReports order) are identical — the comparison every differential
// test of the race machinery uses.
func ReportsEqual(a, b []Report) bool { return slices.Equal(a, b) }

// SortReports sorts reports into the canonical order (by location, thread
// pair, then access kinds with reads first). Every producer of report
// slices — FindRaces, Races, the streaming monitor — uses this order, so
// slices are directly comparable.
func SortReports(out []Report) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Loc != b.Loc:
			return a.Loc < b.Loc
		case a.ThreadI != b.ThreadI:
			return a.ThreadI < b.ThreadI
		case a.ThreadJ != b.ThreadJ:
			return a.ThreadJ < b.ThreadJ
		case a.WriteI != b.WriteI:
			return !a.WriteI
		default:
			return !a.WriteJ && b.WriteJ
		}
	})
}

// IsSCRaceFree reports whether every sequentially consistent trace of p is
// race-free — the hypothesis of thm. 14. The standard DRF discipline can
// be checked without ever reasoning about weak behaviours.
func IsSCRaceFree(p *prog.Program, maxTraces int) (bool, error) {
	races, err := FindRaces(p, true, maxTraces)
	if err != nil {
		return false, err
	}
	return len(races) == 0, nil
}

// CheckGlobalDRF verifies the conclusion of thm. 14 on p: if p is
// race-free in all SC traces, then *every* trace of p is sequentially
// consistent, which we witness by the full outcome set coinciding with the
// SC outcome set and every trace being weak-transition-free. Returns an
// error describing the counterexample if the theorem were to fail (it
// never should; this is the executable statement of the theorem).
func CheckGlobalDRF(p *prog.Program, maxTraces int) error {
	free, err := IsSCRaceFree(p, maxTraces)
	if err != nil {
		return err
	}
	if !free {
		return fmt.Errorf("race: program %q is not SC-race-free; theorem premise not met", p.Name)
	}
	// All traces must be SC.
	var bad explore.Trace
	err = explore.Traces(p, explore.Options{}, maxTraces, func(tr explore.Trace) bool {
		if !IsSC(tr) {
			bad = tr
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return fmt.Errorf("race: DRF program %q has a non-SC trace: %v", p.Name, bad)
	}
	// Consequently the outcome sets agree.
	full, err := explore.Outcomes(p, explore.Options{})
	if err != nil {
		return err
	}
	sc, err := explore.Outcomes(p, explore.Options{SCOnly: true})
	if err != nil {
		return err
	}
	if !full.Equal(sc) {
		return fmt.Errorf("race: DRF program %q: full outcomes %v != SC outcomes %v",
			p.Name, full.Keys(), sc.Keys())
	}
	return nil
}
