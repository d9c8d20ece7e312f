// Command litmus runs litmus tests under the paper's models.
//
// Usage:
//
//	litmus -list
//	litmus -run MP [-model op|sc|ax|x86|x86-movstore|arm-bal|arm-fbs|arm-sra|arm-naive|arm-naive-atomics]
//	litmus -file test.litmus [-model ...]
//
// With -run/-file, the program's outcome set under the selected model is
// printed; for catalogued tests, each check's verdict is evaluated. The
// text format accepted by -file is documented in the README.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"localdrf"
	"localdrf/internal/engine"
)

func main() {
	list := flag.Bool("list", false, "list catalogued litmus tests")
	run := flag.String("run", "", "run a catalogued test by name (or 'all')")
	file := flag.String("file", "", "run a litmus file")
	model := flag.String("model", "op", "model: op, sc, ax, x86, x86-movstore, arm-bal, arm-fbs, arm-sra, arm-naive, arm-naive-atomics")
	par := flag.Int("par", 0, "worker parallelism for -run all (0 = GOMAXPROCS)")
	flag.Parse()

	switch {
	case *list:
		for _, t := range localdrf.LitmusSuite() {
			fmt.Printf("%-24s %s\n", t.Name, t.Description)
		}
	case *run == "all":
		// The whole corpus runs concurrently on the engine's task runner
		// (each test's own exploration stays single-threaded so workers
		// aren't oversubscribed); rendered reports are buffered and
		// printed in catalogue order.
		suite := localdrf.LitmusSuite()
		reports := make([]string, len(suite))
		err := engine.ForEach(*par, len(suite), func(_, i int) error {
			var err error
			reports[i], err = renderTest(suite[i], *model, 1)
			return err
		})
		for _, r := range reports {
			if r != "" {
				fmt.Print(r)
			}
		}
		if err != nil {
			fail(err)
		}
	case *run != "":
		t, ok := localdrf.LitmusTestByName(*run)
		if !ok {
			fail(fmt.Errorf("unknown test %q (try -list)", *run))
		}
		if err := runTest(t, *model); err != nil {
			fail(err)
		}
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		p, err := localdrf.ParseProgram(string(src))
		if err != nil {
			fail(err)
		}
		set, err := outcomes(p, *model, 0)
		if err != nil {
			fail(err)
		}
		printOutcomes(p.Name, set)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// outcomes enumerates p under the selected model. innerPar is the
// engine parallelism for the operational and hardware models (0 means
// GOMAXPROCS; batch runs pass 1 because the corpus fan-out owns the
// cores).
func outcomes(p *localdrf.Program, model string, innerPar int) (*localdrf.OutcomeSet, error) {
	switch model {
	case "op":
		return localdrf.OutcomesOpt(p, localdrf.ExploreOptions{Parallelism: innerPar})
	case "sc":
		return localdrf.OutcomesOpt(p, localdrf.ExploreOptions{SCOnly: true, Parallelism: innerPar})
	case "ax":
		return localdrf.OutcomesAxiomatic(p)
	}
	scheme, ok := map[string]localdrf.Scheme{
		"x86":               localdrf.SchemeX86,
		"x86-movstore":      localdrf.SchemeX86PlainAtomicStore,
		"arm-bal":           localdrf.SchemeARMBal,
		"arm-fbs":           localdrf.SchemeARMFbs,
		"arm-sra":           localdrf.SchemeARMSra,
		"arm-naive":         localdrf.SchemeARMNaive,
		"arm-naive-atomics": localdrf.SchemeARMNaiveAtomics,
	}[model]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", model)
	}
	hp, err := localdrf.Compile(p, scheme)
	if err != nil {
		return nil, err
	}
	return localdrf.HardwareOutcomesParallel(hp, localdrf.HardwareModel(scheme), innerPar)
}

func runTest(t localdrf.LitmusTest, model string) error {
	report, err := renderTest(t, model, 0)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func renderTest(t localdrf.LitmusTest, model string, innerPar int) (string, error) {
	set, err := outcomes(t.Prog, model, innerPar)
	if err != nil {
		return "", fmt.Errorf("%s: %w", t.Name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s) under %s:\n", t.Name, t.Description, model)
	for _, c := range t.Checks {
		verdict := "forbidden"
		if set.Exists(c.Pred) {
			verdict = "allowed"
		}
		marker := " "
		if model == "op" || model == "ax" {
			if (verdict == "allowed") != (c.Want == localdrf.LitmusAllowed) {
				marker = "✗"
			} else {
				marker = "✓"
			}
		}
		fmt.Fprintf(&b, "  %s %-28s %s (model verdict: %v)\n", marker, c.Name, verdict, c.Want)
	}
	fmt.Fprintf(&b, "  %d distinct outcomes\n", set.Len())
	return b.String(), nil
}

func printOutcomes(name string, set *localdrf.OutcomeSet) {
	fmt.Printf("%s: %d outcomes\n", name, set.Len())
	for _, k := range set.Keys() {
		fmt.Printf("  %s\n", k)
	}
}
