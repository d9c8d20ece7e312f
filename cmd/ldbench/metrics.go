package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and how to read it.
type metricDef struct {
	name, unit, better string
	endToEnd           bool
	// listed metrics are the ones BENCHMARK.json names. The others are
	// printed and recorded but left out: absolute layer times that read 0
	// on every workload without that layer, so a run of such a workload
	// would show a constant time; failed_frac, which is 0 on every correct
	// run and reaches the summary line as attempted/failed instead; and
	// the unscaled _raw times and host.speed (see calibrate.go), which
	// move with the other tenants of a shared host.
	listed bool
}

// catalogue is every metric ldbench reports, in print order. doc.go
// gives each definition and the end-to-end metric a layer metric should
// move.
var catalogue = []metricDef{
	{"setup_s", "s", "lower", true, true},
	{"events_per_s", "ev/s", "higher", true, true},
	{"unit_p50_ms", "ms", "lower", true, true},
	{"unit_p90_ms", "ms", "lower", true, true},
	{"cpu_ns_per_event", "ns", "lower", true, true},
	{"peak_rss_mb", "MiB", "lower", true, true},
	{"failed_frac", "ratio", "lower", true, false},
	{"setup_s_raw", "s", "lower", true, false},
	{"events_per_s_raw", "ev/s", "higher", true, false},
	{"unit_p50_ms_raw", "ms", "lower", true, false},
	{"unit_p90_ms_raw", "ms", "lower", true, false},
	{"cpu_ns_per_event_raw", "ns", "lower", true, false},
	{"host.speed", "ratio", "higher", true, false},

	{"schedgen.encode_s", "s", "lower", false, true},
	{"wire.bytes_per_event", "B/ev", "lower", false, true},
	{"wire.decode_s", "s", "lower", false, false},
	{"wire.decode_share", "ratio", "lower", false, true},
	{"wire.events_per_batch", "ev", "higher", false, true},
	{"monitor.step_s", "s", "lower", false, false},
	{"monitor.step_share", "ratio", "lower", false, true},
	{"monitor.reports_s", "s", "lower", false, false},
	{"monitor.reports_share", "ratio", "lower", false, true},
	{"monitor.races_per_unit", "count", "lower", false, true},
	{"monitor.escalations_per_Mevent", "1/Mev", "lower", false, true},
	{"monitor.demotions_per_Mevent", "1/Mev", "lower", false, true},
	{"monitor.gc_sweeps_per_Mevent", "1/Mev", "lower", false, true},
	{"monitor.gc_productive_frac", "ratio", "higher", false, true},
	{"monitor.ra_peak_live", "count", "lower", false, true},
	{"monitor.ra_collected_per_Mevent", "1/Mev", "higher", false, true},
	{"monitor.allocs_per_event", "1/ev", "lower", false, true},
	{"monitor.alloc_bytes_per_event", "B/ev", "lower", false, true},
	{"predict.window_peak", "count", "lower", false, true},
	{"predict.pruned_per_event", "1/ev", "lower", false, true},
	{"predict.window_races_per_unit", "count", "lower", false, true},
	{"pipeline.step_s", "s", "lower", false, false},
	{"pipeline.step_share", "ratio", "lower", false, true},
	{"pipeline.finish_s", "s", "lower", false, false},
	{"pipeline.finish_share", "ratio", "lower", false, true},
	{"pipeline.ring_stalls_per_batch", "ratio", "lower", false, true},
	{"pipeline.ring_idles_per_batch", "ratio", "lower", false, true},
	{"pipeline.backend_imbalance", "ratio", "lower", false, true},
	{"pipeline.delta_records_per_event", "1/ev", "lower", false, true},
	{"pipeline.quiesces_per_unit", "count", "lower", false, true},
	{"pipeline.batch_records_mean", "count", "higher", false, true},
	{"pipeline.seq_ref_events_per_s", "ev/s", "higher", false, false},
	{"service.handshake_ms_p50", "ms", "lower", false, false},
	{"service.handshake_share", "ratio", "lower", false, true},
	{"service.upload_ms_p50", "ms", "lower", false, false},
	{"service.upload_share", "ratio", "lower", false, true},
	{"service.write_blocked_share", "ratio", "lower", false, true},
	{"service.result_wait_ms_p50", "ms", "lower", false, false},
	{"service.result_wait_share", "ratio", "lower", false, true},
	{"service.wire_bytes_per_event", "B/ev", "lower", false, true},
	{"service.retries", "count", "lower", false, true},
	{"service.rejected", "count", "lower", false, true},
	{"service.ingest_errors", "count", "lower", false, true},
	{"service.crc_errors", "count", "lower", false, true},
	{"ckpt.writes_per_session", "count", "lower", false, true},
	{"ckpt.write_ms_p50", "ms", "lower", false, false},
	{"ckpt.fsync_ms_p50", "ms", "lower", false, false},
	{"ckpt.bytes_p50", "B", "lower", false, true},
	{"ckpt.share", "ratio", "lower", false, true},
	{"ckpt.failures", "count", "lower", false, true},
	{"harness.units", "count", "higher", false, true},
	{"trace.overhead_frac", "ratio", "lower", false, true},
	{"trace.unaccounted_share", "ratio", "lower", false, true},
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, or 0
// for an empty slice. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does by default (the exclusive method),
// so -compare agrees with a spread computed in Python. It needs at least
// two values; with fewer it returns xs[0] three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 0 {
			return 0, 0, 0
		}
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

// procField returns the trimmed remainder of the first line of a /proc
// file that starts with prefix, or "" if there is none.
func procField(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// hostInfo is recorded with every result: numbers are comparable only
// between runs on the same kind of host.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Go:         runtime.Version(),
	}
}
