package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"repro/designer"
)

// cmdPartition renders the automatic partition suggestion panel — the
// textual Figure 3: suggested partitions on the right, per-query and
// average workload benefit on the left, rewritten queries below.
func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	df := commonFlags(fs)
	horizontal := fs.Bool("horizontal", true, "also consider horizontal range partitions")
	rewrites := fs.Int("rewrites", 3, "show up to N rewritten queries")
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

	opts := designer.DefaultPartitionOptions()
	if !*horizontal {
		opts.HorizontalFragments = nil
	}
	res, err := d.AdvisePartitions(ctx, w, opts)
	if err != nil {
		return err
	}

	fmt.Println("+---------------------------- Automatic Partition Suggestion ----------------------------+")
	fmt.Println("| Suggested partitions:")
	if len(res.Tables) == 0 {
		fmt.Println("|   (no beneficial partitioning found)")
	}
	for _, tr := range res.Tables {
		if tr.Vertical != "" {
			fmt.Printf("|   VERTICAL   %s\n", wrapFragments(tr.Vertical, "|              "))
		}
		if tr.Horizontal != "" {
			fmt.Printf("|   HORIZONTAL %s\n", tr.Horizontal)
		}
		fmt.Printf("|              table benefit: %.1f%%\n", tr.Improvement()*100)
	}
	fmt.Println("|")
	fmt.Printf("| Average workload benefit: %.1f%%  (%.1f -> %.1f)\n",
		res.Improvement()*100, res.BaselineCost, res.NewCost)
	fmt.Println("|")
	fmt.Println("| Per-query benefit:")

	rep, err := d.Evaluate(ctx, w, res.Config())
	if err != nil {
		return err
	}
	for _, qb := range rep.Queries {
		fmt.Printf("|   %-28s %10.1f -> %10.1f  (%5.1f%%)\n",
			qb.ID, qb.BaseCost, qb.NewCost, qb.BenefitPct())
	}
	fmt.Println("+-----------------------------------------------------------------------------------------+")

	if *rewrites > 0 {
		fmt.Println("\nRewritten queries for the new partitions:")
		n := 0
		for _, q := range w.Queries() {
			if sql, ok := res.Rewritten[q.ID()]; ok {
				fmt.Printf("  %s:\n    %s\n", q.ID(), sql)
				if n++; n >= *rewrites {
					break
				}
			}
		}
		if n == 0 {
			fmt.Println("  (none affected)")
		}
	}
	return nil
}

// wrapFragments softly wraps a long fragment listing for the panel.
func wrapFragments(s, contPrefix string) string {
	const width = 80
	if len(s) <= width {
		return s
	}
	var b strings.Builder
	line := 0
	for _, part := range strings.SplitAfter(s, "}") {
		if line+len(part) > width && line > 0 {
			b.WriteString("\n" + contPrefix)
			line = 0
		}
		b.WriteString(part)
		line += len(part)
	}
	return b.String()
}
