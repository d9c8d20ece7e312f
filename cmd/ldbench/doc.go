// Command ldbench is the repository's benchmark. It measures the two
// jobs users run, end to end and layer by layer:
//
//   - the offline racemon -trace FILE job: monitor.NewTraceReader, then
//     a sequential Monitor or a sharded Pipeline, until the reports are
//     in hand;
//   - the racemond service: an in-process service.Server, fed by
//     service.Clients over loopback TCP.
//
// It generates every input itself from -seed, calls only public
// functions of the library, checks every answer, and prints one
// "workload metric value unit" line per metric, then one JSON summary
// line.
//
// # Running
//
// From the repository root:
//
//	bash cmd/ldbench/run.sh [-workload all|NAME] [-seed 1] [-duration 30s] [-traced 10s]
//	                        [-seconds N] [-trace -1|0|1] [-out FILE] [-spans DIR]
//	bash cmd/ldbench/run.sh -compare PARENT.jsonl CHANGE.jsonl
//	bash cmd/ldbench/run.sh -update-golden
//
// run.sh builds ldbench from source under .bench_build/, Go build cache
// included, and runs it. ldbench is a module of its own that reaches the
// repository's module through a replace directive, so the root's
// go test ./... does not run its tests; run them with
//
//	cd cmd/ldbench && go test ./...
//
// -workload all runs each workload in a child process of its own, one
// at a time, so peak_rss_mb belongs to one workload. GOMAXPROCS is left
// at its default. The host line gives nproc, GOMAXPROCS, the CPU model
// and the Go version; numbers compare only between runs on one host.
//
// A run of one workload does, in order:
//
//  1. set-up, three times: generate and wire-encode the traces, and for
//     the service boot the server. Each repetition must yield the same
//     bytes. setup_s is the median repetition;
//  2. warm-up: one pass over the traces, or two sessions per client,
//     excluded from every metric;
//  3. the untraced window (-duration), which gives the end-to-end
//     metrics, unless -trace 1;
//  4. the traced window (-traced), which gives the per-layer metrics,
//     unless -trace 0;
//  5. the check of every unit's answer (see Correctness).
//
// -seconds N sets the length of whichever window runs. BENCHMARK.json's
// command is run with --workload, --seed, --seconds and --trace 0 or 1.
// The summary line holds the metrics BENCHMARK.json lists for the
// windows that ran. -out appends the whole result, every metric
// included, as one JSON line.
//
// # Inputs and loop model
//
// Seed S gives four traces with seeds S..S+3, made by progsynth.Scaled
// and schedgen.Encode in wire format v2 and kept in memory, so the
// program under test only ever reads wire bytes. A unit is one trace
// (offline) or one session (service). Every workload is a closed loop,
// run in rounds that all do the same work. Offline, one goroutine
// monitors the four traces one after another. The service has 2
// clients, each running the four traces as sessions from its own
// offset, sending the next session only after the previous one's done
// line, as CI jobs waiting for their report do; a round ends when both
// clients are done. A window runs whole rounds until its time is up.
//
// # Host speed
//
// On the shared 2-CPU host the baseline was measured on, other tenants
// slowed whole runs by up to 55% for minutes at a time. Before and
// after every round and every set-up repetition, while the workload is
// idle, ldbench times a fixed calibration kernel of its own
// (calibrate.go), and it reports each end-to-end time at the host speed
// at which the kernel takes 1.5 ms: a round's times are scaled by 1.5 ms
// over the mean of the kernel times around it, its rates by the
// inverse. In a noisy period this cut the interquartile range of ten
// runs from 0.43-0.57 of the median to 0.06-0.12. The unscaled values
// are reported as well, with a _raw suffix, and host.speed is the
// median scale factor (1 at the reference speed).
//
// # Workloads
//
//   - trace-hb: four bursty traces of 2M events, default program shape
//     (8 threads, 48 non-atomic, 8 atomic and 8 release-acquire
//     locations, 10% stale reads), sequential Monitor, hb predicate. The
//     common racemon -trace batch job. Decode and hb checking split the
//     time about 45/55, and bursty schedules load the checker's
//     racy-pair and dedup path. It is the no-change control for the
//     window, routing, service and checkpoint layers.
//   - trace-short64: the same traces under SetPredicate(PredShort, 64).
//     The only workload with predictive-window work: a window gain must
//     show here and leave trace-hb unmoved.
//   - pipeline-zipf: four bursty traces of 2M events with LocSkew 1.3,
//     monitored by NewPipeline with 2 shards and no rebalancing
//     (racemon -trace -shards 2). Hot locations bring thousands of
//     distinct races and escalations per trace, which load routing, the
//     SPSC rings, back-end imbalance and the escalated-vector path while
//     the sequential hot loop sits idle.
//   - service-ckpt: service.Server with a checkpoint directory under
//     .bench_build/ and CheckpointEvery 100000, other fields default; 2
//     clients with unique session ids, four fair private-heavy traces
//     (PrivateLocs 6, PrivatePct 60) of 500k events, round-robin. CRC
//     chunk framing, loopback TCP, per-session set-up, and snapshot
//     encode plus fsync five times per session. The only workload that
//     writes snapshots. Its traces leave the race path nearly idle, so it
//     is the control for checker optimisations.
//
// Wire decode is on every path, as it is for every user; a decode gain
// must shrink wire.decode_s while monitor.step_s holds.
//
// # End-to-end metrics
//
// All times below are at the reference host speed (see Host speed).
//
//   - setup_s (s): median set-up repetition (trace generation and
//     encoding, plus server boot for the service).
//   - events_per_s (ev/s): events monitored per second, the median over
//     the window's rounds.
//   - unit_p50_ms, unit_p90_ms (ms): median and p90 unit time, from
//     NewTraceReader to reports in hand, or from Client.Run's start to
//     its done result. harness.units is the sample count.
//   - cpu_ns_per_event (ns): user plus system CPU of the process
//     (getrusage) per event, the median over the rounds.
//   - peak_rss_mb (MiB): VmHWM of the process after the windows.
//   - failed_frac (ratio): failed units over attempted ones. A unit fails
//     on a decode error, a Client.Run error or a wrong answer. It is 0 on
//     every correct run, so BENCHMARK.json leaves it out and the summary
//     line carries attempted and failed instead.
//   - setup_s_raw, events_per_s_raw, unit_p50_ms_raw, unit_p90_ms_raw,
//     cpu_ns_per_event_raw and host.speed: as measured, unscaled. They
//     move with the host, so BENCHMARK.json leaves them out.
//
// BENCHMARK.json bounds setup_s, events_per_s, unit_p50_ms, unit_p90_ms
// and cpu_ns_per_event at 0.25 of the parent's median and peak_rss_mb at
// 0.15. The baseline is testdata/baseline-set1.jsonl and
// baseline-set2.jsonl: two sets of ten 20 s runs per workload, seeds
// 1..91 and 201..291 in steps of 10, workloads interleaved, on a 2-CPU
// Intel Xeon VM with Go 1.24 while host.speed ranged from 0.46 to 0.91.
// The interquartile range of a set was at most 0.085 of its median for
// events_per_s, unit_p50_ms and cpu_ns_per_event, 0.135 for
// unit_p90_ms, 0.04 for peak_rss_mb and 0.175 for setup_s, and the two
// sets' medians differed by at most 6.3% (-compare: "same" on every
// workload and metric). testdata/baseline-traced.jsonl holds traced
// runs at seeds 1 and 501.
//
// # Per-layer metrics
//
// They come from the traced window, are named by module, and each
// should move the end-to-end metric named after the arrow, on the
// workload in parentheses. Shares are of summed unit time.
//
//   - schedgen.encode_s: median generate-and-encode time of the traces,
//     at the reference speed → setup_s (all). wire.bytes_per_event → events_per_s
//     (service-ckpt, pipeline-zipf).
//   - wire.decode_s (mean per unit) and wire.decode_share: time in
//     NewTraceReader and NextBatch. wire.events_per_batch. → events_per_s,
//     unit_p50_ms (trace-hb, trace-short64, pipeline-zipf).
//   - monitor.step_s and monitor.step_share: time in StepBatch →
//     events_per_s (trace-hb, trace-short64). monitor.reports_s and
//     monitor.reports_share: time in Reports → unit_p50_ms.
//   - monitor.races_per_unit, monitor.escalations_per_Mevent,
//     monitor.demotions_per_Mevent, monitor.gc_sweeps_per_Mevent,
//     monitor.gc_productive_frac (productive over all sweeps),
//     monitor.ra_peak_live (largest over units),
//     monitor.ra_collected_per_Mevent: counts from Stats after each unit,
//     outside its timing; for the service, races and RA counts come from
//     the SessionResult. monitor.allocs_per_event and
//     monitor.alloc_bytes_per_event: MemStats deltas over the window,
//     whole process. → cpu_ns_per_event, peak_rss_mb (trace-hb,
//     pipeline-zipf).
//   - predict.window_peak (largest over units), predict.pruned_per_event,
//     predict.window_races_per_unit → events_per_s (trace-short64). All
//     are 0 on trace-hb.
//   - pipeline.step_s and pipeline.step_share: time in StepBatch,
//     blocking on full rings included; pipeline.finish_s and
//     pipeline.finish_share: time in Finish → events_per_s, unit_p90_ms
//     (pipeline-zipf). pipeline.ring_stalls_per_batch (the producer
//     waited: a back-end is the bottleneck), pipeline.ring_idles_per_batch
//     (a back-end starved: the front-end is), pipeline.backend_imbalance
//     (max over mean of BackendLoads, mean over units) → unit_p90_ms,
//     since the slowest back-end sets the time.
//     pipeline.delta_records_per_event, pipeline.quiesces_per_unit,
//     pipeline.batch_records_mean. pipeline.seq_ref_events_per_s: the
//     sequential racemon -trace job over the same traces after the
//     window, which is both a correctness check and the single-threaded
//     baseline.
//   - service.handshake_ms_p50 and _share (dial, hello, ok reply) →
//     unit_p50_ms. service.upload_ms_p50 and _share, and
//     service.write_blocked_share: time inside conn.Write, that is TCP
//     backpressure from the server → events_per_s.
//     service.result_wait_ms_p50 and _share: END written to done line
//     read → unit_p50_ms. service.wire_bytes_per_event: the server's
//     service.bytes_in over events, CRC framing included → events_per_s.
//     service.retries (from the WrapConn attempt index), service.rejected,
//     service.ingest_errors, service.crc_errors → failed_frac. All on
//     service-ckpt; the server's counters are read after Close.
//   - ckpt.writes_per_session, ckpt.write_ms_p50 (Create to Sync:
//     snapshot encode and write), ckpt.fsync_ms_p50 (File.Sync plus
//     SyncDir), ckpt.bytes_p50, ckpt.share (checkpoint time over session
//     time), ckpt.failures → unit_p50_ms, unit_p90_ms, failed_frac
//     (service-ckpt). They come from a timing wrapper around
//     faultinject.OS passed as service.Config.FS.
//   - harness.units: units measured in the window. trace.overhead_frac:
//     1 − traced ÷ untraced events per unit-second, from the traced
//     window, where every other round runs untraced.
//     trace.unaccounted_share: unit time that no layer span covers. An
//     offline workload whose layers cover less than 90% is flagged with a
//     warning line.
//
// BENCHMARK.json lists the metrics a later change is judged by. It
// leaves out the absolute layer times (wire.decode_s, monitor.step_s,
// monitor.reports_s, pipeline.step_s, pipeline.finish_s, the service and
// checkpoint _ms_p50 metrics) and pipeline.seq_ref_events_per_s, which
// read 0 on every workload without that layer; their shares stand in
// for them.
//
// # Spans
//
// In the traced window each unit is a root span named "unit". Offline
// its children are wire.open, wire.decode, monitor.step or
// pipeline.step (one per batch), and monitor.reports or pipeline.finish;
// engine construction is left uncovered. A service session's children
// are service.handshake, service.upload and service.result_wait, plus
// ckpt.write and ckpt.fsync, which the server records on its own
// goroutine and which are tied to the session by their ring path. A
// span is {unit, id, parent, name, start_ns, end_ns}; all spans of a
// unit share its unit id. Self time is a span's duration less the union
// of its children. -spans DIR writes them as JSON lines when the
// workload ends. Spans are recorded from ldbench around calls into each
// layer; there is no tracing inside the library.
//
// # Correctness
//
// After the windows, each trace is monitored by a sequential Monitor
// (hb, or short:64 for trace-short64) fed straight from the schedule
// generator, with no wire encoding. Every unit, warm-up included, must
// match that reference exactly: race count, the SHA-256 of the sorted
// reports, RAStats, and for trace-short64 the window peak. A service
// session's SessionResult.CanonicalJSON must also equal the reference's.
// testdata/golden.json holds the reference outcomes for seed 1 at the
// full and at the smoke-test size; where an entry exists, the reference
// must equal it. After Close, the server's sessions_completed must equal
// the number of results clients received. Any mismatch is a failed unit
// and makes ldbench exit with status 1; -update-golden rewrites the
// golden file.
//
// # Comparing two commits
//
// Build both commits' checkouts and run them in alternating pairs, at
// least ten, on the same host, with the same flags and seed, switching
// which side runs first in each pair; append each side's results to its
// own file with -out. Then
//
//	bash cmd/ldbench/run.sh -compare PARENT.jsonl CHANGE.jsonl
//
// prints, per workload and metric, each side's median and quartiles
// (Python's statistics.quantiles method) and a verdict. "better" needs
// the change to win at least 9 of 10 pairs and the medians to differ by
// more than the parent's interquartile range. "worse" means the change's
// median is worse than the parent's by more than BENCHMARK.json's bound.
// "unresolved" means the parent's own spread is wider than the bound and
// not every change run beats every parent run. The command exits 1 when
// any end-to-end metric is worse or any change run was incorrect.
//
// A claim must also hold on a seed not used while the change was
// written: pick any -seed other than 1. Seeds without golden entries are
// checked against the reference alone.
package main
