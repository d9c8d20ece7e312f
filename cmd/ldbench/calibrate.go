package main

import (
	"encoding/binary"
	"time"
)

// Other tenants of a shared host slow whole runs by up to half for
// minutes at a time, far more than any bound a change could be judged
// by. So before and after every round of a window, and around every
// set-up repetition, while the workload is idle, ldbench times a fixed
// calibration kernel, and it reports end-to-end times at the speed the
// host has when the kernel takes calibrationRef: a time measured in a
// round around which the kernel took k on average is scaled by
// calibrationRef/k, a rate by k/calibrationRef. The kernel is ldbench's
// own code, so no change to the library moves it. It does the kind of
// work the monitor does (varint decoding of a byte stream, vector-clock
// joins, map updates), so it slows with the host the way the monitor
// does. The unscaled values are reported too, with a _raw suffix, and
// host.speed gives calibrationRef/k.

// calibrationRef is the kernel's time on the reference host, a 2-CPU
// Intel Xeon VM running Go 1.24, in a quiet period.
const calibrationRef = 1500 * time.Microsecond

// kernelRuns is how many kernel runs make one calibration; their
// median is taken.
const kernelRuns = 3

// The kernel's state persists between runs, so that no run allocates.
// Only the goroutine that measures a run calls kernel.
var (
	calStream []byte // varints to decode, about 256 KiB
	calClocks [8][8]uint64
	calMap    = map[uint64]uint64{}
	calSink   uint64
)

func init() {
	var b [binary.MaxVarintLen64]byte
	x := uint64(0x9E3779B97F4A7C15)
	for len(calStream) < 256<<10 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := binary.PutUvarint(b[:], x>>(x%57))
		calStream = append(calStream, b[:n]...)
	}
}

// kernel runs the calibration work once and returns how long it took.
func kernel() time.Duration {
	start := time.Now()
	s := calSink
	for buf := calStream; len(buf) > 0; {
		v, n := binary.Uvarint(buf)
		buf = buf[n:]
		t, u := v%8, (v>>3)%8
		c, d := &calClocks[t], &calClocks[u]
		c[t]++
		for k := range c {
			c[k] = max(c[k], d[k])
		}
		calMap[v%4096] += c[t]
		s += v
	}
	calSink = s
	return time.Since(start)
}

// calibrate returns the median time of kernelRuns kernel runs.
func calibrate() time.Duration {
	var xs [kernelRuns]float64
	for i := range xs {
		xs[i] = float64(kernel())
	}
	return time.Duration(median(xs[:]))
}
