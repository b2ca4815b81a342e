package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// cmdTune is the ops-grade form of Scenario 3: the COLT tuner wrapped in
// the autopilot's closed loop — budgeted background materialization,
// probation with automatic rollback, regret tracking against the
// oracle-best design, and (with --state) crash-safe persistence so a
// rerun resumes instead of relearning.
//
// Two modes:
//   - default: observe a query stream locally and print the decision
//     journal, regret trajectory, and final configuration;
//   - --server: run the full serve fabric with the autopilot already
//     supervising the tuner slot; SIGTERM shuts down gracefully and
//     persists the state.
func cmdTune(args []string) error { return runTune(args, nil) }

func runTune(args []string, ctl *serveControl) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	df := commonFlags(fs)
	perPhase := fs.Int("per-phase", 120, "queries per drift phase")
	epoch := fs.Int("epoch", 25, "epoch length in queries")
	space := fs.Int64("space", 0, "space budget in pages (0 = unlimited)")
	workloadFile := fs.String("workload", "", "file of semicolon-separated SELECTs to observe instead of the generated drift stream")
	statePath := fs.String("state", "", "snapshot file for crash-safe persistence (resumes when it exists)")
	buildBudget := fs.Int64("build-budget", 0, "materialization pages per epoch (0 = default)")
	probation := fs.Int("probation", 0, "probation window in epochs (0 = default)")
	margin := fs.Float64("margin", 0, "rollback margin: allowed shortfall vs the what-if promise (0 = default)")
	cooldown := fs.Int("cooldown", 0, "epochs a rolled-back index stays suppressed (0 = default)")
	regretCandidates := fs.Int("regret-candidates", 0, "oracle candidate cap for regret tracking (0 = default, at most 14)")
	server := fs.Bool("server", false, "serve the design API with the autopilot running instead of tuning locally")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for --server (host:0 for an ephemeral port)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown timeout for --server")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := df.open()
	if err != nil {
		return err
	}
	topts := designer.DefaultTunerOptions()
	topts.EpochLength = *epoch
	topts.SpaceBudgetPages = *space
	aopts := designer.DefaultAutopilotOptions()
	if *buildBudget > 0 {
		aopts.BuildBudgetPages = *buildBudget
	}
	if *probation > 0 {
		aopts.ProbationEpochs = *probation
	}
	if *margin > 0 {
		aopts.RollbackMargin = *margin
	}
	if *cooldown > 0 {
		aopts.CooldownEpochs = *cooldown
	}
	if *regretCandidates > 0 {
		aopts.RegretCandidates = *regretCandidates
	}
	aopts.StatePath = *statePath

	if *server {
		return tuneServer(d, topts, aopts, *addr, *grace, ctl)
	}
	return tuneLocal(d, df, topts, aopts, *workloadFile, *perPhase)
}

// tuneLocal drives the closed loop over a finite stream and reports what
// it did.
func tuneLocal(d *designer.Designer, df *dataFlags, topts designer.TunerOptions,
	aopts designer.AutopilotOptions, workloadFile string, perPhase int) error {
	// Resolve the stream before the autopilot exists: a bad --workload
	// file fails with nothing to unwind.
	stream, err := onlineStream(d, workloadFile, *df.seed, perPhase)
	if err != nil {
		return err
	}
	ap, err := d.NewAutopilot(topts, aopts)
	if err != nil {
		return err
	}
	defer ap.Close()
	if st := ap.Status(); st.Resumed {
		fmt.Printf("resumed from %s (epoch %d, %d decisions)\n", aopts.StatePath, st.Epoch, st.Decisions)
	}
	ap.OnDecision(func(dec designer.AutopilotDecision) {
		fmt.Printf("DECIDE %s\n", dec)
	})

	total, err := ap.ObserveAll(context.Background(), stream)
	if err != nil {
		return err
	}
	fmt.Printf("\nprocessed %d queries, cumulative estimated cost %.1f\n", len(stream), total)

	if regret := ap.Regret(); len(regret) > 0 {
		fmt.Println("\nepoch  live-cost  oracle-cost  regret")
		for _, p := range regret {
			fmt.Printf("%5d  %9.1f  %11.1f  %5.1f%%\n", p.Epoch, p.LiveCost, p.OracleCost, p.RegretPct)
		}
	}
	st := ap.Status()
	var live []string
	for _, ix := range ap.Current() {
		live = append(live, ix.Key())
	}
	fmt.Printf("\nepochs %d · builds %d (%d pages) · rollbacks %d · live: %s\n",
		st.Epoch, st.BuildsCompleted, st.BuildPages, st.Rollbacks, strings.Join(live, ", "))
	if aopts.StatePath != "" {
		if err := ap.Save(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dbdesigner: autopilot state saved to %s\n", aopts.StatePath)
	}
	return nil
}

// tuneServer runs the serve fabric with the autopilot already supervising
// the tuner slot, until SIGINT/SIGTERM; graceful shutdown persists the
// autopilot state.
func tuneServer(d *designer.Designer, topts designer.TunerOptions,
	aopts designer.AutopilotOptions, addr string, grace time.Duration, ctl *serveControl) error {
	srv := serve.New(d)
	id, err := srv.StartAutopilot(topts, aopts)
	if err != nil {
		return err
	}
	err = serveUntilStopped(srv, addr, grace, ctl, func(addr string) {
		fmt.Fprintf(os.Stderr, "dbdesigner: autopilot %s tuning on http://%s/api/v1/ (observe via POST /tuner/observe)\n",
			id, addr)
	})
	if err == nil && aopts.StatePath != "" {
		fmt.Fprintf(os.Stderr, "dbdesigner: autopilot state saved to %s\n", aopts.StatePath)
	}
	return err
}
