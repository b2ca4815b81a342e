package optimizer

import "repro/internal/sqlparse"

// AccessCosts is the Cost of BestTableAccess for each of the required orders
// (nil = any order), sharing the table's scan analysis between them and
// building no plan node: how INUM priced a table under a whole design before
// it priced structure by structure (AccessTerms), kept as the tests'
// reference.
func (e *Env) AccessCosts(sel *sqlparse.SelectStmt, table string, d TableDesign, orders [][]OrderKey) ([]float64, error) {
	s, err := e.scanOf(sel, table, d)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(orders))
	for i, required := range orders {
		costs[i] = s.choose(required).cost
	}
	return costs, nil
}
