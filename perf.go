package localdrf

import (
	"localdrf/internal/sim"
	"localdrf/internal/workload"
)

// ---- Performance evaluation (§8, simulated; see internal/sim) ----

// Benchmark is one fig. 5a workload: the paper's name and access rate
// with a reconstructed access-class mix.
type Benchmark = workload.Benchmark

// Arch is a simulated processor profile.
type Arch = sim.Arch

// PerfScheme is a nonatomic-access compilation scheme for the simulator
// (baseline, BAL, FBS, SRA, and the §8.3 nop-padding control).
type PerfScheme = sim.Scheme

// Simulator schemes.
const (
	PerfBaseline       = sim.Baseline
	PerfBaselinePadded = sim.BaselinePadded
	PerfBAL            = sim.BAL
	PerfFBS            = sim.FBS
	PerfSRA            = sim.SRA
)

// ArchThunderX is the AArch64 profile (fig. 5b's machine).
func ArchThunderX() Arch { return sim.ThunderX() }

// ArchPower is the PowerPC profile (fig. 5c's machine).
func ArchPower() Arch { return sim.Power() }

// Benchmarks returns the 29-benchmark suite of fig. 5a.
func Benchmarks() []Benchmark { return workload.Suite() }

// BenchmarkByName looks up one workload.
func BenchmarkByName(name string) (Benchmark, bool) { return workload.Get(name) }

// SimNormalized returns the benchmark's simulated time under a scheme,
// normalised to the simulated baseline — the quantity figs. 5b/5c plot.
func SimNormalized(b Benchmark, arch Arch, s PerfScheme) float64 {
	return sim.Normalized(b, arch, s)
}

// SimSuite runs the whole suite under one scheme, returning per-benchmark
// normalised times and their mean (the statistic §8.3 quotes).
func SimSuite(arch Arch, s PerfScheme) (map[string]float64, float64) {
	return sim.SuiteNormalized(arch, s)
}
