package whatif

import "repro/internal/catalog"

// Sized builds one structure of the kind through the path candidate ranking
// sizes every candidate by, or returns nil when that path refuses it.
func (s *Session) Sized(kind catalog.StructureKind, table string, keys, extra []string) *catalog.Index {
	acc := candidates{}
	acc.merge(kind, table, keys, extra, 1)
	if out := s.rank(acc, 1); len(out) > 0 {
		return out[0]
	}
	return nil
}
