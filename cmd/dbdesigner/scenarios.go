package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/designer"
)

// cmdAdvise is Scenario 2: automatic index + partition suggestion with the
// materialization schedule.
func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	df := commonFlags(fs)
	budget := fs.Int64("budget", 0, "storage budget in pages (0 = unlimited)")
	nodes := fs.Int("nodes", 0, "solver node budget (0 = prove optimality)")
	partitions := fs.Bool("partitions", true, "also suggest partitions")
	materialize := fs.Bool("materialize", false, "physically build the suggested indexes")
	ddl := fs.Bool("ddl", false, "emit CREATE statements for the advice")
	workloadFile := fs.String("workload", "", "file of semicolon-separated SELECTs to tune for (default: generated SDSS workload)")
	var seedSpecs multiFlag
	fs.Var(&seedSpecs, "seed-index", "user-suggested candidate as table:col1,col2 (repeatable)")
	pin := fs.Bool("pin", false, "force the seeded indexes into the solution")
	projections := fs.Bool("projections", false, "admit covering-projection candidates (INCLUDE payloads)")
	aggviews := fs.Bool("aggviews", false, "admit aggregate materialized-view candidates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	d, err := df.open()
	if err != nil {
		return err
	}
	w, err := loadWorkload(d, *workloadFile, *df.seed+1, *df.queries)
	if err != nil {
		return err
	}
	var seeds []designer.Index
	for _, spec := range seedSpecs {
		table, cols, err := parseIndexSpec(spec)
		if err != nil {
			return err
		}
		seeds = append(seeds, designer.Index{Table: table, Columns: cols})
	}
	opts := designer.AdviceOptions{
		StorageBudgetPages: *budget,
		NodeBudget:         *nodes,
		Partitions:         *partitions,
		Interactions:       true,
		SeedIndexes:        seeds,
		PinIndexes:         *pin,
		CandidateOptions: designer.CandidateOptions{
			IncludeProjections: *projections,
			IncludeAggViews:    *aggviews,
		},
	}
	advice, err := d.Advise(ctx, w, opts)
	if err != nil {
		return err
	}
	fmt.Print(advice.Summary())
	if *ddl {
		fmt.Printf("\n%s", advice.DDL())
	}
	if *materialize && len(advice.Indexes) > 0 {
		io, err := d.Materialize(ctx, advice.Indexes)
		if err != nil {
			return err
		}
		fmt.Printf("\nmaterialized %d indexes (%s)\n", len(advice.Indexes), io.String())
	}
	return nil
}

// cmdWhatIf is Scenario 1: the user specifies a candidate design and the
// tool reports its benefit without building anything.
func cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	df := commonFlags(fs)
	var indexSpecs, vparts, hparts multiFlag
	fs.Var(&indexSpecs, "index", "what-if index as table:col1,col2 (repeatable)")
	fs.Var(&vparts, "vpart", "what-if vertical partition as table:colA,colB|colC,... (repeatable; remaining columns form the last fragment)")
	fs.Var(&hparts, "hpart", "what-if horizontal partition as table:column:k (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	d, err := df.open()
	if err != nil {
		return err
	}
	w, err := d.GenerateWorkload(*df.seed+1, *df.queries)
	if err != nil {
		return err
	}
	s := d.NewDesignSession()

	if len(indexSpecs) == 0 && len(vparts) == 0 && len(hparts) == 0 {
		// A sensible default design so the command demonstrates itself.
		indexSpecs = multiFlag{"photoobj:objid", "photoobj:type,psfmag_r", "specobj:bestobjid"}
		fmt.Println("no design given; using the default demo design:")
		for _, spec := range indexSpecs {
			fmt.Printf("  --index %s\n", spec)
		}
	}
	for _, spec := range indexSpecs {
		table, cols, err := parseIndexSpec(spec)
		if err != nil {
			return err
		}
		if _, err := s.AddIndex(table, cols...); err != nil {
			return err
		}
	}
	for _, spec := range vparts {
		table, frags, err := parseVPartSpec(spec, d)
		if err != nil {
			return err
		}
		if err := s.AddVerticalPartition(table, frags); err != nil {
			return err
		}
	}
	for _, spec := range hparts {
		table, col, k, err := parseHPartSpec(spec)
		if err != nil {
			return err
		}
		if err := s.AddHorizontalPartition(table, col, k); err != nil {
			return err
		}
	}

	rep, err := s.Evaluate(ctx, w)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== What-if benefit ===\n")
	fmt.Printf("workload: %.1f -> %.1f  (%.1f%% improvement)\n",
		rep.BaseTotal, rep.NewTotal, rep.AvgBenefitPct())
	for _, qb := range rep.Queries {
		marker := " "
		if qb.Benefit() > 0 {
			marker = "+"
		}
		fmt.Printf("  %s %-28s %10.1f -> %10.1f (%5.1f%%)\n",
			marker, qb.ID, qb.BaseCost, qb.NewCost, qb.BenefitPct())
	}

	g, err := s.InteractionGraph(ctx, w)
	if err != nil {
		return err
	}
	if len(g.Edges()) > 0 {
		fmt.Printf("\n=== Index interactions ===\n%s", g.Render(10))
	}
	if rw := s.RewrittenQueries(w); len(rw) > 0 {
		fmt.Printf("\n=== Rewritten queries (first 3) ===\n")
		n := 0
		for id, sql := range rw {
			fmt.Printf("  %s: %s\n", id, sql)
			if n++; n >= 3 {
				break
			}
		}
	}
	return nil
}

// cmdOnline is Scenario 3: continuous tuning over a drifting stream.
func cmdOnline(args []string) error {
	fs := flag.NewFlagSet("online", flag.ExitOnError)
	df := commonFlags(fs)
	perPhase := fs.Int("per-phase", 120, "queries per drift phase")
	epoch := fs.Int("epoch", 25, "epoch length in queries")
	budget := fs.Int64("space", 0, "space budget in pages (0 = unlimited)")
	workloadFile := fs.String("workload", "", "file of semicolon-separated SELECTs to observe instead of the generated drift stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	d, err := df.open()
	if err != nil {
		return err
	}
	// Resolve the stream before constructing the tuner: a bad --workload
	// file must fail here, with no half-built tuner left holding costing
	// cache entries (and no OnAlert registered against a tuner that will
	// never observe anything).
	stream, err := onlineStream(d, *workloadFile, *df.seed, *perPhase)
	if err != nil {
		return err
	}
	opts := designer.DefaultTunerOptions()
	opts.EpochLength = *epoch
	opts.SpaceBudgetPages = *budget
	tuner := d.NewOnlineTuner(opts)
	defer tuner.Close()
	tuner.OnAlert(func(a designer.TunerAlert) {
		fmt.Printf("ALERT  %s\n", a)
	})
	total, err := tuner.ObserveAll(ctx, stream)
	if err != nil {
		return err
	}
	fmt.Printf("\nprocessed %d queries, cumulative estimated cost %.1f\n", len(stream), total)
	fmt.Println("\nepoch  queries  est.cost  what-if  changed  configuration")
	for _, r := range tuner.Reports() {
		changed := ""
		if r.ConfigChanged {
			changed = "yes"
		}
		fmt.Printf("%5d  %7d  %8.1f  %7d  %7s  %s\n",
			r.Epoch, r.Queries, r.EpochCost, r.WhatIfCalls, changed,
			strings.Join(r.IndexKeys, ", "))
	}
	return nil
}

// cmdInteractions renders Figure 2 for the advised index set.
func cmdInteractions(args []string) error {
	fs := flag.NewFlagSet("interactions", flag.ExitOnError)
	df := commonFlags(fs)
	topK := fs.Int("top", 10, "show only the k strongest interactions")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	matrix := fs.Bool("matrix", false, "render the full doi matrix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	d, err := df.open()
	if err != nil {
		return err
	}
	w, err := d.GenerateWorkload(*df.seed+1, *df.queries)
	if err != nil {
		return err
	}
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{Interactions: true})
	if err != nil {
		return err
	}
	if len(advice.Indexes) < 2 {
		fmt.Println("fewer than two advised indexes; nothing to interact")
		return nil
	}
	g := advice.Graph
	switch {
	case *dot:
		fmt.Print(g.DOT(*topK))
	case *matrix:
		fmt.Print(g.Matrix())
	default:
		fmt.Printf("interaction graph over %d advised indexes (top %d edges):\n%s",
			len(advice.Indexes), *topK, g.Render(*topK))
		fmt.Println("\nstable subsets (doi >= 0.05 connects):")
		for i, grp := range g.StableSubsets(0.05) {
			fmt.Printf("  %d: %s\n", i+1, strings.Join(grp, ", "))
		}
	}
	return nil
}

// cmdExplain plans one query; --analyze also executes it and reports
// estimated versus measured figures.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	df := commonFlags(fs)
	sql := fs.String("sql", "", "SELECT statement to explain")
	analyze := fs.Bool("analyze", false, "also execute and report actual rows and I/O")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		return errors.New("--sql is required")
	}
	d, err := df.open()
	if err != nil {
		return err
	}
	q, err := d.ParseQuery("q", *sql)
	if err != nil {
		return err
	}
	if *analyze {
		ea, err := d.ExplainAnalyze(q)
		if err != nil {
			return err
		}
		fmt.Print(ea.String())
		return nil
	}
	plan, err := d.Explain(q, nil)
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

// onlineStream resolves the query stream for the online/tune scenarios:
// the generated drift stream by default, or the queries of a --workload
// script file in order (each weighted statement observed once per unit of
// weight, so the tuner sees the same mix the script describes).
func onlineStream(d *designer.Designer, path string, seed int64, perPhase int) ([]designer.Query, error) {
	if path == "" {
		return d.DriftStream(seed+2, perPhase)
	}
	w, err := loadWorkload(d, path, seed, 0)
	if err != nil {
		return nil, err
	}
	var stream []designer.Query
	for _, q := range w.Queries() {
		n := int(q.Weight())
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			stream = append(stream, q)
		}
	}
	return stream, nil
}

// loadWorkload reads a SQL script workload from a file, or generates the
// default SDSS workload when the path is empty. Duplicate statements are
// compressed into weights.
func loadWorkload(d *designer.Designer, path string, seed int64, queries int) (*designer.Workload, error) {
	if path == "" {
		return d.GenerateWorkload(seed, queries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w, err := d.WorkloadFromScript(string(data))
	if err != nil {
		return nil, err
	}
	return designer.CompressWorkload(w), nil
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func parseIndexSpec(spec string) (string, []string, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", nil, fmt.Errorf("bad index spec %q (want table:col1,col2)", spec)
	}
	return parts[0], strings.Split(parts[1], ","), nil
}

// parseVPartSpec parses table:colA,colB|colC. Columns not listed form one
// trailing fragment automatically.
func parseVPartSpec(spec string, d *designer.Designer) (string, [][]string, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return "", nil, fmt.Errorf("bad vpart spec %q (want table:colA,colB|colC)", spec)
	}
	table := parts[0]
	info, ok := d.DescribeTable(table)
	if !ok {
		return "", nil, fmt.Errorf("unknown table %q", table)
	}
	var frags [][]string
	used := map[string]bool{}
	for _, fragSpec := range strings.Split(parts[1], "|") {
		var frag []string
		for _, c := range strings.Split(fragSpec, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			frag = append(frag, strings.ToLower(c))
			used[strings.ToLower(c)] = true
		}
		if len(frag) > 0 {
			frags = append(frags, frag)
		}
	}
	// Remaining non-PK columns become the last fragment.
	var rest []string
	for _, c := range info.Columns {
		lc := strings.ToLower(c.Name)
		if !used[lc] && !c.PrimaryKey {
			rest = append(rest, lc)
		}
	}
	if len(rest) > 0 {
		frags = append(frags, rest)
	}
	return table, frags, nil
}

func parseHPartSpec(spec string) (table, column string, k int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return "", "", 0, fmt.Errorf("bad hpart spec %q (want table:column:k)", spec)
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &k); err != nil {
		return "", "", 0, fmt.Errorf("bad fragment count in %q", spec)
	}
	return parts[0], parts[1], k, nil
}
