package designer

import (
	"fmt"
	"strings"

	"repro/internal/autopart"
	"repro/internal/catalog"
)

// DDL renders the advice as executable SQL: one CREATE statement per
// suggested structure — CREATE INDEX, CREATE INDEX ... INCLUDE for covering
// projections, CREATE MATERIALIZED VIEW for aggregate views — in
// materialization-schedule order when a schedule exists, plus CREATE TABLE
// statements for the fragment tables of each vertical layout and a comment
// naming each horizontal range layout — the "physically create the
// suggested partitions and indexes" output of Scenario 2. The advice
// carries its designer's schema, so no arguments are needed.
func (a *Advice) DDL() string {
	var b strings.Builder
	b.WriteString("-- Generated by the DB designer (Scenario 2)\n")

	indexes := a.Indexes
	if a.Schedule != nil && len(a.Schedule.Steps) == len(a.Indexes) {
		indexes = indexes[:0:0]
		for _, st := range a.Schedule.Steps {
			indexes = append(indexes, st.Index)
		}
		b.WriteString("-- Structures in interaction-aware materialization order.\n")
	}
	for i, ix := range indexes {
		kind, extra, _ := ix.spec()
		name := ix.Name
		if name == "" || strings.HasPrefix(name, "whatif_") {
			prefix := "idx"
			if kind == catalog.KindAggView {
				prefix = "mv"
			}
			name = fmt.Sprintf("%s_%s_%d", prefix, strings.ToLower(ix.Table), i)
		}
		b.WriteString(catalog.StructureDDL(name, kind, strings.ToLower(ix.Table), ix.Columns, extra) + "\n")
	}

	if a.cfg != nil && a.schema != nil {
		for _, t := range a.schema.Tables() {
			v, h := a.cfg.VerticalOn(t.Name), a.cfg.HorizontalOn(t.Name)
			if v == nil {
				if h != nil {
					fmt.Fprintf(&b, "\n-- Horizontal range layout: %s\n", h)
				}
				continue
			}
			b.WriteString("\n-- Vertical fragments for " + strings.ToLower(t.Name) + "\n")
			for fi, frag := range v.Fragments {
				var cols []string
				for _, pk := range t.PrimaryKey {
					if c := t.Column(pk); c != nil {
						cols = append(cols, strings.ToLower(pk)+" "+c.Type.String())
					}
				}
				for _, cn := range frag {
					if c := t.Column(cn); c != nil {
						cols = append(cols, strings.ToLower(cn)+" "+c.Type.String())
					}
				}
				if len(t.PrimaryKey) > 0 {
					var pks []string
					for _, pk := range t.PrimaryKey {
						pks = append(pks, strings.ToLower(pk))
					}
					cols = append(cols, "PRIMARY KEY ("+strings.Join(pks, ", ")+")")
				}
				fmt.Fprintf(&b, "CREATE TABLE %s (%s);\n",
					autopart.FragmentTableName(t.Name, fi), strings.Join(cols, ", "))
			}
			if h != nil {
				fmt.Fprintf(&b, "-- plus horizontal range layout: %s\n", h)
			}
		}
	}
	return b.String()
}
