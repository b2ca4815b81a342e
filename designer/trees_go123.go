//go:build !go1.24

package designer

import "repro/internal/sqlparse"

// treeTable shares nothing before Go 1.24, which brought weak pointers and
// runtime.AddCleanup (trees.go): every lookup misses, so every ParseQuery
// parses.
type treeTable struct{}

func newTreeTable() *treeTable { return &treeTable{} }

func (*treeTable) lookup(string) *sqlparse.SelectStmt { return nil }

func (*treeTable) publish(_ string, stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt { return stmt }
