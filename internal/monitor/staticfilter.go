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
// The filter is configuration, like the GC interval, and snapshots do
// not record it. A certified location can never race, so its checker
// state holds no report; a filtered monitor's snapshot is therefore a
// valid state for an unfiltered one, and resuming it with or without
// the filter (SetStaticFilter / PipelineConfig.StaticFilter) yields the
// same reports. Filtered sequential and sharded monitors snapshot
// byte-identically at the same stream position. The certificate covers
// the program's traces only: a stream that is not one (schedgen's
// LocSkew redirection) must run unfiltered.

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
