package localdrf

import (
	"io"

	"localdrf/internal/axiomatic"
	"localdrf/internal/core"
	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/staticrace"
)

// ---- Programs ----

// Val is the value domain; all locations start at 0.
type Val = prog.Val

// Loc names a memory location; atomicity is declared per location.
type Loc = prog.Loc

// Reg names a thread-local register.
type Reg = prog.Reg

// Program is a multi-threaded program over declared locations.
type Program = prog.Program

// Builder assembles programs fluently; see NewProgram.
type Builder = prog.Builder

// Operand is a register or immediate instruction operand; build with
// R and I.
type Operand = prog.Operand

// NewProgram starts a program builder:
//
//	p := localdrf.NewProgram("MP").
//	    Vars("x").Atomics("F").
//	    Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
//	    Thread("P1").Load("r0", "F").Load("r1", "x").Done().
//	    MustBuild()
//
// Locations come in three flavours: Vars declares nonatomic locations
// (timestamped histories, racy), Atomics declares the paper's
// sequentially consistent atomics, and RAs declares release-acquire
// atomics — the §10 extension, weaker than SC (store buffering and IRIW
// relaxations are visible) but race-free and sufficient for message
// passing.
func NewProgram(name string) *Builder { return prog.NewProgram(name) }

// R makes a register operand.
func R(r Reg) Operand { return prog.R(r) }

// I makes an immediate operand.
func I(v Val) Operand { return prog.I(v) }

// ParseProgram reads the litmus text format (see internal/prog.Parse for
// the grammar): `var`/`atomic` declarations followed by `thread … end`
// blocks of loads (`r = x`), stores (`x = 1`), register ops (`r := a + b`)
// and branches (`if r goto L`).
func ParseProgram(src string) (*Program, error) { return prog.Parse(src) }

// ---- Operational semantics (§3) ----

// Machine is a machine configuration ⟨S, P⟩ of the operational model:
// histories and frontiers for nonatomic locations, (frontier, value)
// cells for atomic ones.
type Machine = core.Machine

// NewMachine returns the initial configuration M0 of a program (§3.1).
func NewMachine(p *Program) *Machine { return core.NewMachine(p) }

// Outcome is the observable result of one complete execution: final
// registers per thread and final (latest-write) memory.
type Outcome = explore.Outcome

// OutcomeSet is a set of outcomes with subset/equality queries.
type OutcomeSet = explore.Set

// ExploreOptions configures exhaustive exploration: the SC restriction,
// the distinct-state budget, and the engine parallelism.
type ExploreOptions = explore.Options

// Outcomes enumerates every behaviour of p under the full memory model,
// on the parallel exploration engine. The result is deterministic.
func Outcomes(p *Program) (*OutcomeSet, error) {
	return explore.Outcomes(p, explore.Options{})
}

// OutcomesOpt is Outcomes with explicit exploration options.
func OutcomesOpt(p *Program, opt ExploreOptions) (*OutcomeSet, error) {
	return explore.Outcomes(p, opt)
}

// OutcomesSequential is the single-threaded memoised reference
// enumeration (the seed implementation), retained for differential
// testing and benchmarking of the parallel engine. On every terminating
// acyclic state space it produces the same outcome set as Outcomes; on a
// cyclic one it reports explore.ErrCyclicStateSpace, where the
// engine-based Outcomes instead terminates by deduplication and returns
// the outcomes of the reachable halted states.
func OutcomesSequential(p *Program) (*OutcomeSet, error) {
	return explore.OutcomesSequential(p, explore.Options{})
}

// OutcomesSC enumerates the sequentially consistent behaviours only
// (traces with no weak transitions, def. 7).
func OutcomesSC(p *Program) (*OutcomeSet, error) {
	return explore.Outcomes(p, explore.Options{SCOnly: true})
}

// ---- Axiomatic semantics (§6) ----

// OutcomesAxiomatic enumerates behaviours via consistent executions of
// the axiomatic model. By thms. 15/16 it agrees with Outcomes.
func OutcomesAxiomatic(p *Program) (*OutcomeSet, error) {
	return axiomatic.Outcomes(p)
}

// ---- Races and local DRF (§4) ----

// LocSet is a set L of locations, the parameter of local DRF.
type LocSet = race.LocSet

// RaceReport describes a data race found in some trace.
type RaceReport = race.Report

// NewLocSet builds a location set.
func NewLocSet(locs ...Loc) LocSet { return race.NewLocSet(locs...) }

// AllLocs is the L that makes local DRF coincide with global DRF.
func AllLocs(p *Program) LocSet { return race.AllLocs(p) }

// FindRaces reports the distinct data races of p. With scOnly, only
// sequentially consistent traces are searched — the discipline the
// global DRF theorem asks programmers to follow.
func FindRaces(p *Program, scOnly bool) ([]RaceReport, error) {
	return race.FindRaces(p, scOnly, 0)
}

// IsSCRaceFree reports whether p is data-race-free in all SC traces
// (the hypothesis of thm. 14).
func IsSCRaceFree(p *Program) (bool, error) { return race.IsSCRaceFree(p, 0) }

// CheckGlobalDRF verifies thm. 14 on p: if p is SC-race-free, every
// behaviour is sequentially consistent. Returns an error describing the
// failure (including "premise not met" for racy programs).
func CheckGlobalDRF(p *Program) error { return race.CheckGlobalDRF(p, 0) }

// LStable decides def. 12: whether machine state m of program p has no
// in-progress races on L.
func LStable(p *Program, m *Machine, L LocSet) (bool, error) {
	return race.LStable(p, m, L, 8_000_000)
}

// CheckLocalDRFFrom verifies the conclusion of the local DRF theorem
// (thm. 13) from machine state m: L-sequential runs stay L-sequential
// until a data race on L occurs.
func CheckLocalDRFFrom(m *Machine, L LocSet) error {
	return race.CheckLocalDRFFrom(m, L, 8_000_000)
}

// ---- Traces and streaming monitoring ----

// Trace is a finite sequence of machine transitions from the initial
// state (def. 5).
type Trace = explore.Trace

// Traces enumerates every complete trace of p (all traces, or only the
// sequentially consistent ones with scOnly), feeding each to visit;
// enumeration stops early when visit returns false. Exhaustive — litmus
// scale only; for long single schedules use the streaming layer below.
func Traces(p *Program, scOnly bool, visit func(Trace) bool) error {
	return explore.Traces(p, explore.Options{SCOnly: scOnly}, 0, visit)
}

// TraceRaces returns the distinct data races of one trace (defs. 8–10),
// deduplicated by location, thread pair and access kinds — the
// exhaustive per-trace oracle.
func TraceRaces(tr Trace) []RaceReport { return race.Races(tr) }

// MonitorTrace runs the online happens-before race monitor
// (internal/monitor: vector clocks, O(threads) per event worst case)
// over one trace of p and returns the same report set as TraceRaces —
// verified identical on every trace by the differential test suite, but
// in a single streaming pass that scales to millions of events.
func MonitorTrace(p *Program, tr Trace) ([]RaceReport, error) {
	return monitor.NewTable(p).Races(tr)
}

// MonitorTraceReader monitors a raw trace in the wire format of
// internal/monitor (binary or text, self-describing, sniffed
// automatically) from r, in one bounded-memory streaming pass: epochs
// for nonatomic history, windowed GC for release-acquire messages.
// The decoder validates the stream and returns an error on malformed
// input. This is how executions recorded outside this process are
// monitored; cmd/racemon -emit/-trace are the command-line ends of the
// same pipe.
func MonitorTraceReader(r io.Reader) ([]RaceReport, error) {
	return monitor.ReadRaces(r)
}

// ---- Static may-race analysis ----

// StaticReport partitions a program's nonatomic locations into a sound
// may-race set and a statically certified race-free set, with a
// per-location certificate reason and the cross-thread pairs examined.
// Its RaceFree method makes it a certificate for the monitor's static
// pre-filter (MonitorStaticFilter) and for certificate-strengthened
// reorderings (CanReorderCert, DeriveOptimisationCert).
type StaticReport = staticrace.Report

// AnalyzeStatic runs the sound static may-race analysis: a flow-
// sensitive abstract interpretation whose may-race set over-approximates
// the union of race.Races over ALL interleavings (proven differentially
// against the exhaustive oracle on the full corpus). Certified locations
// carry an LDRF certificate: every execution keeps their accesses
// happens-before ordered.
func AnalyzeStatic(p *Program) *StaticReport { return staticrace.Analyze(p) }

// MonitorStaticFilter builds the per-location skip mask that lets a
// Monitor (SetStaticFilter, or PipelineConfig.StaticFilter when opening
// one) bypass race-checker work for statically certified locations —
// reports and retention statistics are byte-identical, the certified
// locations' checks are simply free. Returns nil when the certificate proves
// nothing.
func MonitorStaticFilter(p *Program, rep *StaticReport) []bool {
	return monitor.StaticFilter(monitor.NewTable(p).Decls(), rep.RaceFree)
}

// ---- Litmus catalogue ----

// LitmusTest is a named program with outcome predicates and the model's
// verdicts; the catalogue includes the paper's examples 1–3.
type LitmusTest = litmus.Test

// LitmusVerdict is the model's answer for one outcome predicate.
type LitmusVerdict = litmus.Verdict

// Litmus verdicts.
const (
	LitmusForbidden = litmus.Forbidden
	LitmusAllowed   = litmus.Allowed
)

// LitmusSuite returns the full catalogue.
func LitmusSuite() []LitmusTest { return litmus.Suite() }

// VerifyLitmusSuite checks every catalogued verdict of every test,
// running the corpus concurrently (parallelism 0 means GOMAXPROCS).
func VerifyLitmusSuite(parallelism int) error { return litmus.VerifyAll(parallelism) }

// LitmusTestByName looks a test up by name (e.g. "MP", "Example2").
func LitmusTestByName(name string) (LitmusTest, bool) { return litmus.Get(name) }

// VerifyLitmus checks every catalogued verdict of a test against the
// operational model.
func VerifyLitmus(t LitmusTest) error { return litmus.Verify(t) }
