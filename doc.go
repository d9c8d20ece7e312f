// Package localdrf is a Go reproduction of "Bounding Data Races in Space
// and Time" (Dolan, Sivaramakrishnan, Madhavapeddy; PLDI 2018) — the
// memory model that became the OCaml 5 memory model.
//
// The package is organised around the paper's artefacts:
//
//   - Programs: a small multi-threaded register language with atomic and
//     nonatomic locations (Builder, ParseProgram), standing in for the
//     paper's abstract expressions e, e′.
//
//   - The operational model (§3): stores map nonatomic locations to
//     timestamped histories and atomic locations to (frontier, value)
//     pairs; every thread carries a frontier. Outcomes and OutcomesSC
//     enumerate behaviours exhaustively; NewMachine exposes the raw
//     machine for step-level work.
//
//   - Local DRF (§4): FindRaces, IsSCRaceFree, LStable,
//     CheckLocalDRFFrom, CheckGlobalDRF are executable counterparts of
//     defs. 6–12 and thms. 13/14.
//
//   - The axiomatic model (§6): OutcomesAxiomatic enumerates consistent
//     executions; it agrees with the operational enumeration (thms.
//     15/16, validated empirically in the test suite).
//
//   - Compilation (§7): Compile lowers programs to x86-TSO or ARMv8 per
//     the paper's tables (plus deliberately broken ablations), and
//     CheckCompilation verifies soundness by outcome-set inclusion
//     against the hardware models of figs. 3 and 4.
//
//   - Optimisations (§7.1): CanReorder, the RL/SF/DS peepholes, and
//     derived CSE/DSE/constant-propagation passes; invalid
//     transformations (redundant store elimination) fail to derive.
//
//   - The performance evaluation (§8): a pipeline-simulator substitute
//     regenerates the shape of figs. 5a–5c over the paper's 29-benchmark
//     suite (the package doc of internal/sim holds the substitution
//     rationale; cmd/experiments -run fig5a, fig5b and fig5c print it
//     next to the paper's numbers).
//
// All exhaustive searches — operational outcome enumeration, the trace
// scans of the race machinery, the hardware candidate-execution
// enumeration, and the litmus corpus runner — run on a single shared
// exploration engine (internal/engine). The engine owns canonical-state
// identity (a compact binary encoding of machine states, ordinal-renamed
// timestamps, interned by 128-bit hash), memoisation and state budgets,
// and scheduling (a work-stealing parallel frontier search plus a task
// runner for corpus sweeps). Results are accumulated in per-worker sinks
// and merged as sets, so every enumeration is deterministic at any
// parallelism; OutcomesSequential retains the single-threaded memoised
// reference path for differential testing. A new semantics plugs into the
// engine by providing a canonical state encoding and a successor
// function — see internal/engine's package comment. The trace-level
// analyses LStable and CheckLocalDRFFrom run on the same engine with
// path-carrying states (a state is a machine plus the trace that reached
// it, identified by its DFS child-index path), with sequential reference
// implementations retained and differentially tested.
//
// Beyond the exhaustive checkers, internal/monitor is a streaming
// subsystem that makes def. 8 happens-before and def. 9/10 races
// executable at scale: an online, single-pass race monitor over one
// observed trace, using per-thread vector clocks with per-location
// last-access records — tens of millions of events per second on a
// single core. Its live state is bounded: nonatomic locations are kept
// as FastTrack-style epochs (a single thread@clock word) that escalate
// to per-thread vectors only on genuinely concurrent history, and
// release-acquire messages live in a flat per-location store (a dense
// slice of live messages, their clocks in one arena, and an
// open-addressed timestamp index under a per-process hash key, so
// publishing a message allocates nothing) from which they are
// garbage-collected, in one compacting pass per sweep, as soon as the
// pointwise-minimum thread frontier passes their writer event (the join
// is then provably a no-op forever), so memory tracks the
// synchronisation window rather than the trace length — O(events ×
// threads) time worst case, O(locations + threads²) space until
// histories actually race. Traces are ingested two ways: converted
// machine traces (monitor.Table), or the versioned raw wire format
// (binary and text) whose validating decoder monitors executions
// recorded outside the process (MonitorTraceReader), one decoded batch
// at a time into StepBatch. The
// monitor is fed by internal/schedgen, which executes scaled-up random
// programs (progsynth.Scaled: many threads looping over many locations,
// with a sync-heartbeat ring so frontiers keep advancing) under fair,
// unfair or bursty scheduling policies — materialised (Generate),
// pushed event-by-event (Stream) or in reused batches (StreamBatch), or
// encoded straight to the wire format (Encode), reaching 10⁶+ events
// without ever buffering the schedule; finished threads can announce a
// retirement event (KindHalt) so windowed analyses stop retaining state
// on their behalf.
//
// # Parallel ingest pipeline
//
// There is one engine type, monitor.Monitor. Every caller that turns
// an event stream into reports — racemon's generated and -trace modes
// and racemond's sessions — builds it the same way:
// monitor.Open(header, PipelineConfig) returns a *monitor.Monitor, and
// Snapshot.Open resumes one from a checkpoint, with
// TraceReader.ResumeAt positioning the trace where the checkpoint
// stopped. At most one shard gives a sequential monitor; more give the
// same monitor with staged race back-ends, not replay-per-shard:
//
//	wire bytes ─▶ frame decode ─▶ sync front-end ─┬─▶ race back-end 1
//	              (TraceReader)                   ├─▶ race back-end 2
//	                                              └─▶ race back-end M
//
// On the left, the delta-compressed framed binary wire format (varint
// thread/location/timestamp deltas, ~2.1 bytes per event on the
// reference stream; the older per-event version 1 is retired and
// rejected) is decoded a frame at a time, in a single pass: the batch grows once by the frame's event
// count and events decode in place, one-byte varints inline, and the
// kind-versus-declaration check is one compare against a per-location
// class table. (A frame-parallel decoder feeding an ordering sequencer was
// measured on a 2-CPU host against this one and lost, so it was
// removed.)
//
// In the middle, a single synchronisation front-end — the monitor's
// own Step, so both modes share one per-event path —
// consumes the ordered stream once — all clock joins, RA message
// retention and windowed GC — and routes each nonatomic access, plus a compact
// clock-delta side channel, to the race back-end owning its location
// (loc mod shards). Records travel in batches over bounded
// SPSC rings (engine.BatchQueue), so total work is O(events) +
// O(events/shards × check cost) per back-end instead of O(shards ×
// events), and the merged report set is byte-identical to the
// sequential monitor at any shard count, batch size and GC interval.
//
// Routing is the static loc-mod-shards split. Under Zipf-skewed traffic
// it loads some back-ends more than others (Monitor.BackendLoads
// reports the split); a skew-adaptive router that migrated hot locations
// between back-ends at GC barriers was measured on a 2-CPU host against
// the static split, never won, and was removed.
//
// The GC-sweep barrier also drives escalation compaction: a
// nonatomic location whose last-access record escalated to a per-thread
// vector during a racy phase is demoted back to a FastTrack epoch once
// the advancing minimum-frontier proves at most one thread's component
// still matters — long-quiet locations stop paying vector cost, so live
// state (and snapshot size) strictly shrinks as threads synchronise or
// halt. Back-ends compact at identical stream positions (the sweep is
// broadcast through the lanes), keeping parallel state byte-identical
// to sequential.
//
// # Checkpoint & resume
//
// Monitoring can stop at any event index and continue later, in another
// process or under another configuration. monitor.Monitor.Snapshot
// serialises the complete live state — thread and release clocks,
// epoch-or-vector per-location last-access state, dedup bitmasks, live
// RA messages, the GC frontier and interval, and the halt
// set — in a versioned binary format ("LDCK"), one flat stream of fields;
// monitor.ReadSnapshot then Snapshot.Open rebuild a monitor that
// finishes the stream with reports and RAStats byte-identical to a run
// that never stopped. The
// encoding is canonical, so resume composes (a snapshot of a restored
// monitor equals the unsplit snapshot at the same index) and the
// encoded size is a direct measurement of the paper's boundedness
// claim: it stays flat over a million-event stream (~11 KB) while an
// unbounded-GC control grows without limit. A sharded monitor snapshots
// by quiesce-drain — a barrier through every back-end ring, after which
// the front-end's sync state and the back-ends' per-location state are
// reassembled in declaration order — producing bytes identical to the
// sequential monitor's at the same position, so checkpoints resume
// sequentially, sharded at any count (Snapshot.Open routes each
// restored location to its owning back-end), or under a different GC
// regime, all report-preserving. A snapshot is the monitor's state and
// nothing else: it holds no trace position, so a checkpoint taken over
// a generated run, a binary trace or a text trace of the same stream is
// one set of bytes, and TraceReader.ResumeAt resumes it over either
// trace format by skipping the events it covers. The stream has no
// section framing: the decoder reads it field by field, validates
// every field and errors (never panics) on malformed input, naming the
// part and field — fuzzed, like the trace decoder. The metamorphic
// split-resume harness in internal/modeltest proves parity at every
// grid split point of all 210 schedgen streams (every tenth seed
// Zipf-skewed) across the {1,2,4,8}-shard × {GC-16, default}
// matrix, including double splits, cross-config resumes, and snapshots
// taken by sharded monitors — which are byte-identical to the
// sequential monitor's.
//
// # Static analysis
//
// internal/staticrace is a sound static may-race analysis: with no
// trace enumeration at all, AnalyzeStatic partitions a program's
// nonatomic locations into a may-race set and a certified race-free
// set, each certificate naming its reason. The abstraction is a
// flow-sensitive abstract interpretation over bounded value sets
// (explicit ⊤ beyond 8 values) with register provenance, run to a
// whole-program fixpoint over the per-location abstract values;
// branch refinement turns an observed guard value into a fact about
// the flag location, and the certificate rules are: location unused,
// single-thread, read-only, guard-ordered (every qualifying flag
// write is same-thread with and dominates the data access, so the
// cross-thread reader's guard orders the pair happens-before), and
// pairwise-ordered. Abstract reachability prunes out-of-thin-air
// stores, so LB+ctrl certifies — precision the obvious syntactic
// analysis misses. Soundness is not argued, it is measured: the
// differential harness in internal/modeltest runs the full corpus
// (litmus catalogue plus hundreds of synthesised programs) through
// the exhaustive dynamic oracle and asserts static ⊇ dynamic on
// every one, and FuzzStaticSoundness keeps hunting for a miss in CI.
// The certificates license two consumers. First, the monitor's static
// pre-filter: Monitor.SetStaticFilter / PipelineConfig.StaticFilter
// (MonitorStaticFilter builds the mask, racemon -static-prefilter and
// the internal/monitor bench BenchmarkSchedulePrivate/prefilter-on
// exercise it) skip all
// race-checker work for certified locations — by soundness the
// reports and RAStats are proven identical with the filter on,
// sequentially and at every shard count, and a filtered monitor's
// snapshot (which does not record the filter) resumes with or without
// it to the same reports; only the time changes. The certificate
// covers the program's traces only, so racemon refuses the filter with
// -skew, whose redirected accesses leave them. Second, certificate-strengthened compiler reorderings:
// CanReorderCert / DeriveOptimisationCert relax exactly the poRW
// constraint — the one §7.1 rule that exists to protect racy read
// values — when the certificate proves both locations race-free,
// validated semantically by outcome-set inclusion. This is the local
// DRF theorem used as a compiler licence: race-freedom on L, proven
// statically, buys SC reasoning on L. cmd/drfcheck -static prints the
// per-location verdicts next to the dynamic ones.
//
// # Observability
//
// The streaming subsystem is instrumented end to end through
// internal/obs, a dependency-free metrics kernel (counters, gauges,
// fixed-size vectors, power-of-two histograms in a named registry).
// The discipline is hot-path-safe by construction: the monitor's event
// loop touches only plain single-writer fields (the one addition on
// the per-event path is a per-kind tally increment) and publishes them
// into padded atomic cells at its natural barriers — GC sweeps, batch
// flushes, and quiesce acknowledgements — so concurrent scrapers read
// consistent values with bounded staleness (at most one GC window or
// batch) and zero contention on the ingest path. Two read paths exist:
// Monitor.Stats publishes then snapshots for exact values (a sharded
// monitor quiesces first, so per-back-end loads are precise), and
// Obs().Snapshot() reads the atomics from any goroutine at any time.
// The catalogue covers the monitor (events by kind, races, GC sweep
// productivity, RA retention, escalations/demotions, snapshot codec
// sizes and latencies), the back-ends (routed/delta/min records, the
// batch-size histogram, quiesce latency, ring occupancy and stall/idle
// counts, per-back-end record/escalation/race vectors) — see
// internal/monitor's obs.go for the full list.
// Instrumentation is proven free: the modeltest matrix includes a
// sharded monitor hammered by concurrent snapshot reads whose reports,
// RAStats and checkpoint bytes must equal the sequential monitor's,
// and the internal/monitor bench BenchmarkScheduleBursty/hb-scrape-1ms
// (the online pass with a 1ms scraper) measures it against the
// unscraped BenchmarkScheduleBursty/hb.
// cmd/racemon surfaces all of it: -stats-addr serves GET /stats (JSON
// snapshot of monotonic counters plus uptime_ns; clients derive rates
// from two scrapes), expvar at /debug/vars and pprof at /debug/pprof
// while the run ingests — the one obshttp.Serve endpoint racemond's
// -stats-addr serves too; -stats-linger holds the endpoint open after
// short runs; and the -json summary embeds the final exact snapshot
// under "stats".
//
// # Service
//
// internal/service and cmd/racemond lift the monitor into a
// long-running, fault-tolerant, multi-tenant service: a TCP server
// where each connection carries one named trace session (its own
// Monitor, sequential or sharded), framed in CRC-32C chunks so
// a flipped byte or a torn stream is detected before any byte reaches
// the trace decoder. Durability is a per-session ring of LDCK snapshot
// files (atomic tmp+fsync+rename, newest-first recovery skipping
// corrupt generations), written every N monitored events and never on
// an abnormal end — a failed session's position is untrustworthy by
// definition, so corruption, disconnection, ingest timeout and server
// SIGKILL all collapse into the same safe move: revert to the newest
// checkpoint. Resume is deliberately stateless on the client
// (service.Client): every attempt replays the trace from byte 0 and
// the server skips the events the recovered checkpoint covers, so the session id is
// the only resume key. Overload is explicit — a session cap and
// checkpoint backpressure shed admissions with "busy retry-after",
// per-read deadlines bound slow-loris clients, idle bookkeeping is
// evicted — and per-session telemetry rides the same obs registry
// under GET /stats. internal/faultinject supplies the deterministic
// fault surface (byte-offset connection cuts and corruption, torn and
// budget-limited checkpoint writes, write throttling); the package's
// chaos harness drives every fault schedule across shard counts and
// checkpoint intervals and requires the final reports and RAStats to
// be byte-identical to an uninterrupted run, including across
// kill-and-restart of the server process — which CI also drills with
// real processes via racemond -drive's golden-checked 8-session load.
//
// The monitor's verdicts are differentially tested against the
// exhaustive oracle race.Races on every corpus program, on hundreds of
// random programs, and on hundreds of generated schedules — at every GC
// interval and across the full pipeline (shards × batch × GC) matrix;
// cmd/racemon exposes the checkpoint workflow as -checkpoint FILE
// [-checkpoint-at N] and -resume FILE.
//
// The command-line tools (cmd/litmus, cmd/drfcheck, cmd/memsim,
// cmd/racemon, cmd/experiments) and the examples directory exercise all
// of the above; cmd/experiments -run all prints paper-versus-measured
// results for every table and figure and exits 1 on any semantic
// mismatch. cmd/racemon generates a million-event schedule
// (optionally Zipf-skewed: -skew S) and monitors it fused with
// generation, never materialising the schedule, sequentially or
// through the parallel pipeline (-shards N), and writes/ingests raw traces
// (-emit FILE [-format binary|text], -trace FILE|-); its JSON reports the
// windowed GC's live, peak and collected RA-message counts.
// Performance is measured by cmd/ldbench, end to end and per layer on
// the racemon -trace and racemond jobs; CI runs its -compare between a
// change and its base commit and fails on an end-to-end metric worse
// than its BENCHMARK.json bound or on a wrong answer. Each layer also
// has testing.B benchmarks in the package that owns it, reporting ev/s.
// CI also fails if any racemon smoke run's report set —
// including the pipeline at 4 back-ends and the binary and text wire
// round trips — drifts from the committed golden, and curls a live racemon
// -stats-addr endpoint to assert the telemetry keys it ships.
package localdrf
