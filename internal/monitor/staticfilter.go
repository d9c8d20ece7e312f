package monitor

// Static pre-filtering: a sound static race-freedom certificate
// (internal/staticrace) lets the monitor skip the def. 9/10 checker work
// for nonatomic locations proven race-free in every trace — their
// accesses can never produce a report, so not checking them changes
// nothing except the work done. All synchronisation bookkeeping
// (program-order increments, event counts, RA retention, GC cadence) is
// untouched: a filtered run's RAStats and GC schedule are identical to
// an unfiltered one, and its reports are identical by the certificate's
// soundness — both proven in the modeltest differential matrix.
//
// The filter is configuration, like the GC interval: the mask itself
// is not serialised into snapshots — a restored monitor applies it
// again via SetStaticFilter / PipelineConfig.StaticFilter. The snapshot
// does record *whether* a filter was active (Snapshot.StaticFiltered),
// so a resumer that cannot rebuild the mask can at least warn instead
// of silently monitoring a filtered prefix unfiltered.
// Filtered locations keep empty checker state, so filtered sequential
// and sharded monitors still snapshot byte-identically at the same
// stream position.

import "localdrf/internal/prog"

// SetStaticFilter installs a per-location skip mask: events on
// nonatomic locations with skip[loc] true bypass the race checker. nil
// clears the filter. The mask must come from a sound certificate
// (staticrace.Report.RaceFree via StaticFilter) — skipping a location
// that can race loses reports. Masking a synchronising location has no
// effect (its clock work always runs). The mask length must equal the
// declaration count.
func (m *Monitor) SetStaticFilter(skip []bool) {
	if skip != nil && len(skip) != len(m.decls) {
		panic("monitor: static filter mask length != declaration count")
	}
	m.staticSkip = skip
}

// StaticFilter builds the skip mask for decls from a race-freedom
// certificate: exactly the nonatomic locations the certificate proves
// race-free are marked. Returns nil (no filtering) when the certificate
// proves nothing, so the unfiltered hot path stays branch-free.
func StaticFilter(decls []LocDecl, raceFree func(prog.Loc) bool) []bool {
	mask := make([]bool, len(decls))
	any := false
	for i, d := range decls {
		if d.Kind == prog.NonAtomic && raceFree(d.Name) {
			mask[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return mask
}

// FilteredLocs counts the locations a mask skips (telemetry for CLIs
// and benches).
func FilteredLocs(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}
