// Regression: drive the fc1-style regression environment (§4 of the
// paper) against the golden T2 model and a buggy variant, and render a
// failing run's event timeline. Uses the repository's internal packages;
// see examples/quickstart for the public-API path.
//
//	go run ./examples/regression
package main

import (
	"fmt"
	"log"
	"os"

	"tracescale/internal/inject"
	"tracescale/internal/opensparc"
	"tracescale/internal/regress"
	"tracescale/internal/soc"
)

func main() {
	// The golden design passes the whole suite.
	reports, err := regress.RunSuite(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("golden design:")
	for _, r := range reports {
		fmt.Printf("  %-14s %s  %4d events, %5d cycles\n", r.Test, status(r.Passed), r.Events, r.EndCycle)
	}

	// Inject the paper's headline bug (33: the DMU never raises the Mondo
	// transfer request) and watch mondo_storm fail.
	bug, err := opensparc.BugByID(33)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninjected: %s\n", bug)
	rep, err := regress.Run(mustTest("mondo_storm"), 7, bug)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-14s %s\n", rep.Test, status(rep.Passed))
	for _, v := range rep.Violations {
		fmt.Printf("    ! %s\n", v)
	}

	// The same bug on usage scenario 1: the Mondo transfer request is
	// dropped and every Mondo instance hangs behind it.
	scenario, err := opensparc.ScenarioByID(1)
	if err != nil {
		log.Fatal(err)
	}
	sc := soc.Scenario{Name: scenario.Name, Launches: scenario.Launches(6, 20)}
	buggy, err := soc.Run(sc, soc.Config{Seed: 7, Injectors: inject.Injectors(bug)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s with the bug: %d of %d instances hang; timeline:\n\n",
		scenario.Name, len(buggy.Symptoms), len(sc.Launches))
	if err := soc.WriteTimeline(os.Stdout, buggy, 72); err != nil {
		log.Fatal(err)
	}
}

func status(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func mustTest(name string) regress.Test {
	t, err := regress.TestByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
