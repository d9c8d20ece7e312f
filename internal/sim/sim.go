// Package sim is the performance-evaluation substitute for §8 of the
// paper. This package doc is the substitution rationale: what is
// simulated instead of measured, and why.
//
// The paper measures patched OCaml compilers on a Cavium ThunderX
// (AArch64) and a virtualised IBM POWER machine. Go cannot control the
// fences a real machine executes, so this package models the only
// variable the experiment manipulates: the extra instructions each
// compilation scheme wraps around each class of memory access, and what
// those extras stall on. The processor model is a deterministic in-order
// core with non-blocking loads (a bounded outstanding-load queue), a
// draining store buffer, and a fetch front-end sensitive to loop size —
// enough microarchitecture for every effect §8.3 discusses:
//
//   - BAL's branch costs an issue slot per mutable load;
//   - FBS's dmb ld waits on outstanding loads (usually none by the time a
//     store issues, hence FBS < BAL on AArch64);
//   - lwsync on POWER is a heavyweight ordering op, hence FBS ≫ BAL there;
//   - SRA's ldar/stlr serialise against both queues (ThunderX-style
//     conservative acquire/release), and its FP accesses need dmb pairs,
//     which is why the numerical benchmarks collapse;
//   - growing the loop body can *improve* unlucky baseline fetch
//     alignment, reproducing the paper's nop-padding observation.
//
// Absolute cycle counts are meaningless; results are reported as time
// normalised to the simulated baseline, exactly as fig. 5b/5c report.
package sim

import (
	"fmt"
	"math/rand"

	"localdrf/internal/workload"
)

// Arch is a processor profile.
type Arch struct {
	Name    string
	FreqGHz float64
	// Loads.
	LoadLatency    int     // L1 hit latency
	MissLatency    int     // cache miss latency
	HitRate        float64 // L1 hit rate of the synthetic workloads
	MaxOutstanding int     // non-blocking load queue depth
	// Store buffer.
	StoreBufCap int
	StoreDrain  int // cycles between drains of consecutive entries
	// Decoration costs.
	BranchCost  int // predicted dependent branch (BAL)
	DmbLdFixed  int // dmb ld, beyond waiting for outstanding loads
	DmbStFixed  int // dmb st, beyond waiting for the store buffer
	AcqFixed    int // ldar, beyond full serialisation (ThunderX-style)
	RelFixed    int // stlr, beyond store-buffer drain
	FPSerialize int // barrier adjacent to an FP access: exposed FP-pipe depth
	LwsyncFixed int // POWER lwsync ordering cost
	IsyncFixed  int // POWER isync pipeline restart
	CmpBrCost   int // POWER cmp+beq pair of the BAL equivalent
	// Front end.
	FetchBytes int // fetch-group size; loop bodies pay per group
	InstrBytes int // fixed instruction width
}

// ThunderX returns the AArch64 profile: a small in-order core with a
// conservative (fully serialising) ldar/stlr implementation — the
// documented behaviour of the Cavium part the paper measured, and the
// reason SRA averages +85% there.
func ThunderX() Arch {
	return Arch{
		Name:           "aarch64-thunderx",
		FreqGHz:        2.5,
		LoadLatency:    4,
		MissLatency:    60,
		HitRate:        0.97,
		MaxOutstanding: 8,
		StoreBufCap:    16,
		StoreDrain:     3,
		BranchCost:     2,
		DmbLdFixed:     1,
		DmbStFixed:     2,
		AcqFixed:       70,
		RelFixed:       35,
		FPSerialize:    55,
		LwsyncFixed:    0,
		IsyncFixed:     0,
		CmpBrCost:      0,
		FetchBytes:     16,
		InstrBytes:     4,
	}
}

// Power returns the PowerPC profile: faster clock, but lwsync is a
// heavyweight ordering operation on the old virtualised pSeries the paper
// used, and the acquire sequence (ld; cmp; beq; isync) serialises on the
// load result.
func Power() Arch {
	return Arch{
		Name:           "power-pseries",
		FreqGHz:        3.425,
		LoadLatency:    4,
		MissLatency:    80,
		HitRate:        0.97,
		MaxOutstanding: 8,
		StoreBufCap:    16,
		StoreDrain:     3,
		BranchCost:     1,
		DmbLdFixed:     0,
		DmbStFixed:     0,
		AcqFixed:       0,
		RelFixed:       0,
		FPSerialize:    0,
		LwsyncFixed:    70,
		IsyncFixed:     16,
		CmpBrCost:      2,
		FetchBytes:     16,
		InstrBytes:     4,
	}
}

// Scheme is a compilation scheme for nonatomic accesses (§8.2). Atomics
// are excluded: the paper leaves their evaluation to future work.
type Scheme int

const (
	// Baseline compiles loads and stores bare (trunk OCaml).
	Baseline Scheme = iota
	// BaselinePadded is the §8.3 control experiment: bare accesses padded
	// with nops to match BAL's instruction count.
	BaselinePadded
	// BAL is branch-after-load (table 2a; ld;cmp;beq on POWER).
	BAL
	// FBS is fence-before-store (table 2b; lwsync;st on POWER).
	FBS
	// SRA is strong release/acquire: ldar/stlr (AArch64, with dmb pairs
	// for FP); ld;cmp;beq;isync / lwsync;st (POWER).
	SRA
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case BaselinePadded:
		return "baseline+nop"
	case BAL:
		return "BAL"
	case FBS:
		return "FBS"
	case SRA:
		return "SRA"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MicroOp is one instruction of the simulated stream.
type MicroOp int

const (
	UAlu MicroOp = iota
	UNop
	ULoad       // plain load
	UStore      // plain store
	ULoadAcq    // ldar (serialising acquire load)
	UStoreRel   // stlr (store-buffer-draining release store)
	UDmbLd      // dmb ld
	UDmbSt      // dmb st
	UFPLoadSer  // FP load + adjacent dmb ld: the load is fully serialised
	UFPStoreSer // dmb st + FP store: the store buffer is drained first
	ULwsync     // POWER lwsync
	UIsyncSeq   // POWER cmp;beq;isync consuming the previous load
	UBranchDep  // BAL's cbz (predicted, costs an issue slot)
	UCmpBr      // POWER's cmp;beq pair (BAL equivalent)
)

// lower maps one access to its instruction sequence under (arch, scheme).
// Immutable loads and initialising stores are bare everywhere (§8.1).
func lower(arch Arch, s Scheme, a workload.Access) []MicroOp {
	isPower := arch.LwsyncFixed > 0
	switch a.Class {
	case workload.ImmLoad:
		return []MicroOp{ULoad}
	case workload.InitStore:
		return []MicroOp{UStore}
	case workload.MutLoad:
		switch s {
		case Baseline:
			return []MicroOp{ULoad}
		case BaselinePadded:
			return []MicroOp{ULoad, UNop}
		case BAL:
			if isPower {
				return []MicroOp{ULoad, UCmpBr}
			}
			return []MicroOp{ULoad, UBranchDep}
		case FBS:
			return []MicroOp{ULoad}
		case SRA:
			if isPower {
				return []MicroOp{ULoad, UIsyncSeq}
			}
			if a.FP {
				// No FP ldar: plain load with dmb ld immediately after
				// (§8.3). The barrier lands in the load's shadow, so the
				// whole FP-pipe latency is exposed per access.
				return []MicroOp{UFPLoadSer}
			}
			return []MicroOp{ULoadAcq}
		}
	case workload.Assign:
		switch s {
		case Baseline:
			return []MicroOp{UStore}
		case BaselinePadded:
			return []MicroOp{UStore, UNop}
		case BAL:
			return []MicroOp{UStore}
		case FBS:
			if isPower {
				return []MicroOp{ULwsync, UStore}
			}
			return []MicroOp{UDmbLd, UStore}
		case SRA:
			if isPower {
				return []MicroOp{ULwsync, UStore}
			}
			if a.FP {
				// No FP stlr: dmb st immediately before the store (§8.3).
				return []MicroOp{UFPStoreSer}
			}
			return []MicroOp{UStoreRel}
		}
	}
	return []MicroOp{UNop}
}

// cpu is the in-order core state.
type cpu struct {
	arch        Arch
	cycle       int64
	outstanding []int64 // completion times of in-flight loads
	sbuf        []int64 // drain times of store-buffer entries
	lastDrain   int64
	rng         *rand.Rand
}

func (c *cpu) issue(n int64) { c.cycle += n }

func (c *cpu) retireLoads() {
	keep := c.outstanding[:0]
	for _, t := range c.outstanding {
		if t > c.cycle {
			keep = append(keep, t)
		}
	}
	c.outstanding = keep
}

func (c *cpu) drainStores() {
	keep := c.sbuf[:0]
	for _, t := range c.sbuf {
		if t > c.cycle {
			keep = append(keep, t)
		}
	}
	c.sbuf = keep
}

func (c *cpu) waitLoads() {
	for _, t := range c.outstanding {
		if t > c.cycle {
			c.cycle = t
		}
	}
	c.outstanding = c.outstanding[:0]
}

func (c *cpu) waitStores() {
	for _, t := range c.sbuf {
		if t > c.cycle {
			c.cycle = t
		}
	}
	c.sbuf = c.sbuf[:0]
}

func (c *cpu) loadLatency() int64 {
	if c.rng.Float64() < c.arch.HitRate {
		return int64(c.arch.LoadLatency)
	}
	return int64(c.arch.MissLatency)
}

func (c *cpu) exec(op MicroOp) {
	c.retireLoads()
	c.drainStores()
	switch op {
	case UAlu, UNop:
		c.issue(1)
	case ULoad:
		if len(c.outstanding) >= c.arch.MaxOutstanding {
			// Wait for the oldest in-flight load.
			oldest := c.outstanding[0]
			if oldest > c.cycle {
				c.cycle = oldest
			}
			c.outstanding = c.outstanding[1:]
		}
		c.issue(1)
		c.outstanding = append(c.outstanding, c.cycle+c.loadLatency())
	case UStore:
		if len(c.sbuf) >= c.arch.StoreBufCap {
			oldest := c.sbuf[0]
			if oldest > c.cycle {
				c.cycle = oldest
			}
			c.sbuf = c.sbuf[1:]
		}
		c.issue(1)
		drainAt := c.cycle + int64(c.arch.StoreDrain)
		if drainAt < c.lastDrain+int64(c.arch.StoreDrain) {
			drainAt = c.lastDrain + int64(c.arch.StoreDrain)
		}
		c.lastDrain = drainAt
		c.sbuf = append(c.sbuf, drainAt)
	case ULoadAcq:
		// ThunderX-style conservative acquire: waits for everything,
		// completes before anything later issues.
		c.waitLoads()
		c.waitStores()
		c.issue(int64(c.arch.AcqFixed) + c.loadLatency())
	case UStoreRel:
		c.waitStores()
		c.issue(int64(c.arch.RelFixed) + 1)
	case UDmbLd:
		c.waitLoads()
		c.issue(int64(c.arch.DmbLdFixed))
	case UDmbSt:
		c.waitStores()
		c.issue(int64(c.arch.DmbStFixed))
	case UFPLoadSer:
		// ldr (FP); dmb ld — nothing later may issue until the load and
		// everything before it completes: the FP pipeline depth plus the
		// barrier is exposed on every such access.
		c.waitLoads()
		c.issue(1 + c.loadLatency() + int64(c.arch.FPSerialize) + int64(c.arch.DmbLdFixed))
	case UFPStoreSer:
		// dmb st; str (FP) — the store buffer must drain before the
		// store, and the FP store pays its pipeline depth.
		c.waitStores()
		c.issue(1 + int64(c.arch.FPSerialize)/2 + int64(c.arch.DmbStFixed))
		drainAt := c.cycle + int64(c.arch.StoreDrain)
		if drainAt < c.lastDrain+int64(c.arch.StoreDrain) {
			drainAt = c.lastDrain + int64(c.arch.StoreDrain)
		}
		c.lastDrain = drainAt
		c.sbuf = append(c.sbuf, drainAt)
	case ULwsync:
		// Orders prior reads and writes before later ones without a full
		// drain: wait on loads and pay the ordering cost.
		c.waitLoads()
		c.issue(int64(c.arch.LwsyncFixed))
	case UIsyncSeq:
		// cmp; beq; isync consuming the previous load: the branch cannot
		// resolve before the load completes, and isync restarts fetch.
		c.waitLoads()
		c.issue(int64(c.arch.IsyncFixed) + 2)
	case UBranchDep:
		c.issue(int64(c.arch.BranchCost))
	case UCmpBr:
		c.issue(int64(c.arch.CmpBrCost) + 1)
	}
}

// Result is one simulation run.
type Result struct {
	Benchmark string
	Arch      string
	Scheme    Scheme
	Cycles    int64
	Instrs    int64
}

// Iterations is the number of hot-loop iterations per run; results are
// ratios, so this only needs to be large enough to dwarf warm-up.
const Iterations = 2000

// Run simulates one benchmark under one scheme.
func Run(b workload.Benchmark, arch Arch, s Scheme) Result {
	body := b.Body()
	gap := b.AluGap(arch.FreqGHz)

	// Build one iteration's instruction stream.
	var stream []MicroOp
	for _, a := range body {
		for i := 0; i < gap; i++ {
			stream = append(stream, UAlu)
		}
		stream = append(stream, lower(arch, s, a)...)
	}
	for i := 0; i < b.HotLoopPad; i++ {
		stream = append(stream, UAlu)
	}

	// Front-end fetch tax: a per-iteration stall when the body's byte
	// size leaves a one-instruction straggler in the last fetch group
	// (the loop head then shares a fetch group with the loop tail,
	// costing a redirect every iteration) — the §8.3 alignment effect.
	// Growing the loop by a couple of instructions (BAL's branches,
	// FBS's fences, or plain nop padding) shifts the residue and removes
	// the tax, which is how a *decorated* scheme can beat the baseline.
	bodyBytes := len(stream) * arch.InstrBytes
	fetchTax := int64(0)
	if r := bodyBytes % arch.FetchBytes; r > 0 && r <= arch.InstrBytes {
		fetchTax = 8
	}

	c := &cpu{arch: arch, rng: rand.New(rand.NewSource(seedOf(b.Name)))}
	for it := 0; it < Iterations; it++ {
		for _, op := range stream {
			c.exec(op)
		}
		c.cycle += fetchTax
	}
	c.waitLoads()
	c.waitStores()
	return Result{
		Benchmark: b.Name,
		Arch:      arch.Name,
		Scheme:    s,
		Cycles:    c.cycle,
		Instrs:    int64(len(stream)) * Iterations,
	}
}

// Normalized returns time under s divided by time under Baseline — the
// quantity fig. 5b/5c plot.
func Normalized(b workload.Benchmark, arch Arch, s Scheme) float64 {
	base := Run(b, arch, Baseline)
	r := Run(b, arch, s)
	return float64(r.Cycles) / float64(base.Cycles)
}

// SuiteNormalized runs the whole fig. 5a suite under one scheme and
// returns per-benchmark normalised times plus the arithmetic mean, the
// statistic §8.3 quotes.
func SuiteNormalized(arch Arch, s Scheme) (map[string]float64, float64) {
	out := map[string]float64{}
	sum := 0.0
	suite := workload.Suite()
	for _, b := range suite {
		n := Normalized(b, arch, s)
		out[b.Name] = n
		sum += n
	}
	return out, sum / float64(len(suite))
}

func seedOf(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
