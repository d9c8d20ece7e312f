// Perfmodel: the §8 evaluation in miniature — simulate a handful of
// fig. 5a workloads under each compilation scheme on both architecture
// profiles and print the normalised times the paper plots.
//
//	go run ./examples/perfmodel
package main

import (
	"fmt"

	"localdrf"
)

func main() {
	picks := []string{
		"almabench",  // FP-heavy numeric, low access rate
		"rnd_access", // synthetic mutable-access hammer
		"minilight",  // FP-heavy numeric, high access rate
		"menhir-sql", // symbolic, integer
		"sequence",   // highly functional, alignment-sensitive
	}
	schemes := []localdrf.PerfScheme{localdrf.PerfBAL, localdrf.PerfFBS, localdrf.PerfSRA}

	for _, arch := range []localdrf.Arch{localdrf.ArchThunderX(), localdrf.ArchPower()} {
		fmt.Printf("%s (simulated; normalised to baseline)\n", arch.Name)
		fmt.Printf("    %-14s", "benchmark")
		for _, s := range schemes {
			fmt.Printf(" %8s", s)
		}
		fmt.Println()
		for _, name := range picks {
			b, ok := localdrf.BenchmarkByName(name)
			if !ok {
				continue
			}
			fmt.Printf("    %-14s", name)
			for _, s := range schemes {
				fmt.Printf(" %8.3f", localdrf.SimNormalized(b, arch, s))
			}
			fmt.Println()
		}
		_, balAvg := localdrf.SimSuite(arch, localdrf.PerfBAL)
		_, fbsAvg := localdrf.SimSuite(arch, localdrf.PerfFBS)
		_, sraAvg := localdrf.SimSuite(arch, localdrf.PerfSRA)
		fmt.Printf("    suite averages: BAL %+.1f%%  FBS %+.1f%%  SRA %+.1f%%\n\n",
			100*(balAvg-1), 100*(fbsAvg-1), 100*(sraAvg-1))
	}

	fmt.Println("paper's averages: AArch64 BAL +2.5% FBS +0.6% SRA +85.3%;")
	fmt.Println("                  POWER   BAL +2.9% FBS +26.0% SRA +40.8%")
	fmt.Println("(the simulator reproduces the shape — who wins, by roughly what")
	fmt.Println(" factor, and why — not the absolute numbers; see experiments -run fig5b)")
}
