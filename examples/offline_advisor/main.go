// Offline automatic design — the paper's Scenario 2, end to end:
// CoPhy-selected indexes under a storage budget, AutoPart partitions on
// top, the index-interaction graph, and the interaction-aware
// materialization schedule, all panels of one Advice.
//
// The baselines the paper measures them against are experiments, not
// advisors: `dbdesigner bench --experiments cophy_vs_greedy` compares
// CoPhy with DTA-style greedy and the exhaustive optimum across budgets,
// and `--experiments interaction_schedule` the interaction-aware schedule
// with an interaction-oblivious one.
//
//	go run ./examples/offline_advisor
package main

import (
	"context"
	"fmt"
	"log"

	"repro/designer"
)

func main() {
	ctx := context.Background()
	d, err := designer.OpenSDSS("small", 21)
	if err != nil {
		log.Fatal(err)
	}
	w, err := d.GenerateWorkload(22, 36)
	if err != nil {
		log.Fatal(err)
	}

	// Budgeted automatic design with everything on.
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{
		StorageBudgetPages: 2500,
		Partitions:         true,
		Interactions:       true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(advice.Summary())
	fmt.Printf("\nCoPhy at budget 2500 pages: cost %.1f, gap %.2f%% (proven %v)\n",
		advice.Solver.Objective, advice.Solver.Gap()*100, advice.Solver.Proven)
	fmt.Println("baselines: dbdesigner bench --experiments cophy_vs_greedy,interaction_schedule")
}
