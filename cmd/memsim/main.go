// Command memsim runs the §8 performance simulation.
//
// Usage:
//
//	memsim -arch arm                       # fig. 5b table
//	memsim -arch power                     # fig. 5c table
//	memsim -arch arm -bench minilight      # one benchmark, all schemes
//	memsim -arch arm -scheme sra           # one scheme, all benchmarks
//
// Results are simulated times normalised to the simulated baseline; the
// package doc of internal/sim says why this is a simulation and what it
// preserves.
package main

import (
	"flag"
	"fmt"
	"os"

	"localdrf"
)

func main() {
	archFlag := flag.String("arch", "arm", "architecture profile: arm (ThunderX-like) or power")
	benchFlag := flag.String("bench", "", "run a single benchmark")
	schemeFlag := flag.String("scheme", "", "run a single scheme: bal, fbs, sra, padded")
	flag.Parse()

	var arch localdrf.Arch
	switch *archFlag {
	case "arm":
		arch = localdrf.ArchThunderX()
	case "power":
		arch = localdrf.ArchPower()
	default:
		fail(fmt.Errorf("unknown arch %q", *archFlag))
	}

	schemes := []localdrf.PerfScheme{localdrf.PerfBAL, localdrf.PerfFBS, localdrf.PerfSRA}
	if *schemeFlag != "" {
		s, ok := map[string]localdrf.PerfScheme{
			"bal":    localdrf.PerfBAL,
			"fbs":    localdrf.PerfFBS,
			"sra":    localdrf.PerfSRA,
			"padded": localdrf.PerfBaselinePadded,
		}[*schemeFlag]
		if !ok {
			fail(fmt.Errorf("unknown scheme %q", *schemeFlag))
		}
		schemes = []localdrf.PerfScheme{s}
	}

	benches := localdrf.Benchmarks()
	if *benchFlag != "" {
		b, ok := localdrf.BenchmarkByName(*benchFlag)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q", *benchFlag))
		}
		benches = []localdrf.Benchmark{b}
	}

	fmt.Printf("%s — simulated normalised time (baseline = 1.0)\n", arch.Name)
	fmt.Printf("%-22s", "benchmark")
	for _, s := range schemes {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	sums := make([]float64, len(schemes))
	for _, b := range benches {
		fmt.Printf("%-22s", b.Name)
		for i, s := range schemes {
			n := localdrf.SimNormalized(b, arch, s)
			sums[i] += n
			fmt.Printf(" %8.3f", n)
		}
		fmt.Println()
	}
	if len(benches) > 1 {
		fmt.Printf("%-22s", "AVERAGE")
		for i := range schemes {
			fmt.Printf(" %8.3f", sums[i]/float64(len(benches)))
		}
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
