package livedb

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// heapPageBytes is PostgreSQL's block size; used to derive page counts for
// tables the server has never vacuumed (relpages = 0).
const heapPageBytes = 8192

// Snapshot is the live catalog translated into the designer's vocabulary:
// schema, statistics, and the physical structures that already exist.
type Snapshot struct {
	Database string
	Version  string
	Schema   *catalog.Schema
	Stats    *stats.Catalog
	// Existing lists the secondary indexes already materialized on the
	// server, so advice doesn't re-recommend what is already there.
	Existing []*catalog.Index
}

// Snapshot queries pg_class/pg_attribute/pg_index/pg_stats over the public
// schema and builds the designer-side catalog. Every statement carries an
// ORDER BY, so a recorded snapshot replays deterministically.
func TakeSnapshot(ctx context.Context, db *DB) (*Snapshot, error) {
	snap := &Snapshot{Schema: catalog.NewSchema(), Stats: stats.NewCatalog(), Version: db.Parameter("server_version")}

	rows, err := snapshotQuery(ctx, db, "database", sqlDatabase, 1)
	if err != nil {
		return nil, err
	}
	if len(rows) == 1 {
		snap.Database = rows[0][0]
	}

	order := []string{}
	acc := map[string]*tableAcc{}

	if rows, err = snapshotQuery(ctx, db, "tables", sqlTables, 3); err != nil {
		return nil, err
	}
	for _, r := range rows {
		rows, _ := strconv.ParseInt(r[1], 10, 64)
		pages, _ := strconv.ParseInt(r[2], 10, 64)
		if rows < 0 {
			rows = 0 // reltuples = -1 means "never analyzed"
		}
		acc[r[0]] = &tableAcc{rows: rows, pages: pages}
		order = append(order, r[0])
	}

	if rows, err = snapshotQuery(ctx, db, "columns", sqlColumns, 3); err != nil {
		return nil, err
	}
	for _, r := range rows {
		t := acc[r[0]]
		if t == nil {
			continue
		}
		t.cols = append(t.cols, catalog.Column{Name: r[1], Type: kindOf(r[2])})
	}

	if rows, err = snapshotQuery(ctx, db, "primary keys", sqlPrimaryKeys, 2); err != nil {
		return nil, err
	}
	for _, r := range rows {
		if t := acc[r[0]]; t != nil {
			t.pk = append(t.pk, r[1])
		}
	}

	colStats, err := snapshotStats(ctx, db, acc)
	if err != nil {
		return nil, err
	}

	for _, name := range order {
		t := acc[name]
		if len(t.cols) == 0 {
			continue
		}
		// Feed observed average widths back into the schema columns so row
		// width (and thus derived page counts) reflect the live data.
		if ts := colStats[name]; ts != nil {
			for i := range t.cols {
				if cs := ts.Columns[strings.ToLower(t.cols[i].Name)]; cs != nil && cs.AvgWidth > 0 {
					t.cols[i].AvgWidth = cs.AvgWidth
				}
			}
		}
		tbl, err := catalog.NewTable(name, t.cols, t.pk...)
		if err != nil {
			return nil, fmt.Errorf("livedb: snapshot: %w", err)
		}
		if err := snap.Schema.AddTable(tbl); err != nil {
			return nil, fmt.Errorf("livedb: snapshot: %w", err)
		}
		ts := colStats[name]
		if ts == nil {
			ts = &stats.TableStats{Columns: map[string]*stats.ColumnStats{}}
		}
		ts.RowCount = t.rows
		ts.Pages = t.pages
		if ts.Pages == 0 && ts.RowCount > 0 {
			ts.Pages = (ts.RowCount*int64(tbl.RowWidthBytes()) + heapPageBytes - 1) / heapPageBytes
		}
		snap.Stats.Put(name, ts)
	}

	if snap.Existing, err = snapshotIndexes(ctx, db, acc); err != nil {
		return nil, err
	}
	return snap, nil
}

const (
	sqlDatabase = "SELECT current_database()"

	sqlTables = "SELECT c.relname, c.reltuples::bigint, c.relpages FROM pg_class c " +
		"JOIN pg_namespace n ON n.oid = c.relnamespace " +
		"WHERE n.nspname = 'public' AND c.relkind = 'r' ORDER BY c.relname"

	sqlColumns = "SELECT c.relname, a.attname, t.typname FROM pg_attribute a " +
		"JOIN pg_class c ON c.oid = a.attrelid " +
		"JOIN pg_namespace n ON n.oid = c.relnamespace " +
		"JOIN pg_type t ON t.oid = a.atttypid " +
		"WHERE n.nspname = 'public' AND c.relkind = 'r' AND a.attnum > 0 AND NOT a.attisdropped " +
		"ORDER BY c.relname, a.attnum"

	sqlPrimaryKeys = "SELECT c.relname, a.attname FROM pg_index i " +
		"JOIN pg_class c ON c.oid = i.indrelid " +
		"JOIN pg_namespace n ON n.oid = c.relnamespace " +
		"JOIN pg_attribute a ON a.attrelid = c.oid AND a.attnum = ANY(i.indkey) " +
		"WHERE i.indisprimary AND n.nspname = 'public' " +
		"ORDER BY c.relname, array_position(i.indkey, a.attnum)"

	sqlIndexes = "SELECT c.relname, ic.relname, a.attname FROM pg_index i " +
		"JOIN pg_class c ON c.oid = i.indrelid " +
		"JOIN pg_class ic ON ic.oid = i.indexrelid " +
		"JOIN pg_namespace n ON n.oid = c.relnamespace " +
		"JOIN pg_attribute a ON a.attrelid = c.oid AND a.attnum = ANY(i.indkey) " +
		"WHERE NOT i.indisprimary AND n.nspname = 'public' " +
		"ORDER BY c.relname, ic.relname, array_position(i.indkey, a.attnum)"

	sqlStats = "SELECT tablename, attname, null_frac, avg_width, n_distinct, " +
		"COALESCE(correlation, 0), most_common_vals::text, most_common_freqs::text, histogram_bounds::text " +
		"FROM pg_stats WHERE schemaname = 'public' ORDER BY tablename, attname"
)

// snapshotQuery runs one snapshot query and refuses a result with a row
// narrower than the query's select list (width): neither pgwire nor a
// recorded trace checks a row against its columns, and every snapshot loop
// reads its row by position.
func snapshotQuery(ctx context.Context, db *DB, what, sql string, width int) ([][]string, error) {
	res, err := db.Query(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("livedb: snapshot %s: %w", what, err)
	}
	for i, r := range res.Rows {
		if len(r) < width {
			return nil, fmt.Errorf("livedb: snapshot %s: row %d has %d fields, %.60q selects %d", what, i, len(r), sql, width)
		}
	}
	return res.Rows, nil
}

// tableAcc accumulates one table's catalog rows while the snapshot
// queries stream in.
type tableAcc struct {
	rows, pages int64
	cols        []catalog.Column
	pk          []string
}

func snapshotStats(ctx context.Context, db *DB, acc map[string]*tableAcc) (map[string]*stats.TableStats, error) {
	rows, err := snapshotQuery(ctx, db, "pg_stats", sqlStats, 9)
	if err != nil {
		return nil, err
	}
	out := map[string]*stats.TableStats{}
	for _, r := range rows {
		table, column := r[0], r[1]
		t := acc[table]
		if t == nil {
			continue
		}
		kind := catalog.KindString
		for _, c := range t.cols {
			if strings.EqualFold(c.Name, column) {
				kind = c.Type
				break
			}
		}
		cs := &stats.ColumnStats{}
		cs.NullFrac, _ = strconv.ParseFloat(r[2], 64)
		if w, err := strconv.Atoi(r[3]); err == nil {
			cs.AvgWidth = w
		}
		nd, _ := strconv.ParseFloat(r[4], 64)
		switch {
		case nd > 0:
			cs.NDV = int64(nd)
		case nd < 0:
			// Negative n_distinct is a fraction of the row count.
			cs.NDV = int64(math.Round(-nd * float64(t.rows)))
		}
		if cs.NDV < 1 && t.rows > 0 {
			cs.NDV = 1
		}
		cs.Correlation, _ = strconv.ParseFloat(r[5], 64)

		mcvVals := parsePGArray(r[6])
		mcvFreqs := parsePGArray(r[7])
		for i := 0; i < len(mcvVals) && i < len(mcvFreqs); i++ {
			f, err := strconv.ParseFloat(mcvFreqs[i], 64)
			if err != nil {
				continue
			}
			cs.MCVs = append(cs.MCVs, stats.MCV{Value: datumOf(kind, mcvVals[i]), Freq: f})
		}
		if bounds := parsePGArray(r[8]); len(bounds) >= 2 {
			h := &stats.Histogram{Bounds: make([]catalog.Datum, len(bounds))}
			for i, b := range bounds {
				h.Bounds[i] = datumOf(kind, b)
			}
			cs.Hist = h
			cs.Min, cs.Max = h.Bounds[0], h.Bounds[len(h.Bounds)-1]
		}
		// Columns with tiny domains have no histogram; bound the domain by
		// the MCV list instead.
		if cs.Min.IsNull() {
			for _, m := range cs.MCVs {
				if cs.Min.IsNull() || m.Value.Less(cs.Min) {
					cs.Min = m.Value
				}
				if cs.Max.IsNull() || cs.Max.Less(m.Value) {
					cs.Max = m.Value
				}
			}
		}
		ts := out[table]
		if ts == nil {
			ts = &stats.TableStats{Columns: map[string]*stats.ColumnStats{}}
			out[table] = ts
		}
		ts.Columns[strings.ToLower(column)] = cs
	}
	return out, nil
}

func snapshotIndexes(ctx context.Context, db *DB, acc map[string]*tableAcc) ([]*catalog.Index, error) {
	rows, err := snapshotQuery(ctx, db, "indexes", sqlIndexes, 3)
	if err != nil {
		return nil, err
	}
	var out []*catalog.Index
	byName := map[string]*catalog.Index{}
	for _, r := range rows {
		table, index, column := r[0], r[1], r[2]
		if acc[table] == nil {
			continue
		}
		ix := byName[index]
		if ix == nil {
			ix = &catalog.Index{Name: index, Table: table}
			byName[index] = ix
			out = append(out, ix)
		}
		ix.Columns = append(ix.Columns, column)
	}
	return out, nil
}

// kindOf maps a pg_type name onto the designer's coarse type lattice.
func kindOf(typname string) catalog.Kind {
	switch typname {
	case "int2", "int4", "int8", "oid", "serial", "bigserial":
		return catalog.KindInt
	case "float4", "float8", "numeric", "money":
		return catalog.KindFloat
	default:
		return catalog.KindString
	}
}

// datumOf converts a text-format value into a typed datum.
func datumOf(kind catalog.Kind, s string) catalog.Datum {
	switch kind {
	case catalog.KindInt:
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return catalog.Int(v)
		}
	case catalog.KindFloat:
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return catalog.Float(v)
		}
	}
	return catalog.String_(s)
}

// parsePGArray parses a PostgreSQL array literal — {1,2,3} or
// {"a b","say \"hi\"",NULL} — into its text elements. NULL elements and a
// NULL array (rendered as the empty string by the wire layer) yield nothing
// and an empty slice respectively.
func parsePGArray(s string) []string {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return nil
	}
	var out []string
	var cur strings.Builder
	inQuote := false
	wasQuoted := false
	flush := func() {
		v := cur.String()
		cur.Reset()
		if !wasQuoted && v == "NULL" {
			wasQuoted = false
			return
		}
		wasQuoted = false
		out = append(out, v)
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case inQuote && c == '\\' && i+1 < len(body):
			i++
			cur.WriteByte(body[i])
		case inQuote && c == '"':
			inQuote = false
		case !inQuote && c == '"':
			inQuote = true
			wasQuoted = true
		case !inQuote && c == ',':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
