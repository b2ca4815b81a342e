package designer_test

import (
	"context"
	"runtime"
	"testing"

	"repro/designer"
)

// TestSessionNumberingRetentionCeiling guards what a long-lived design
// session keeps of the structures its questions priced. Its view numbers
// every structure a question prices, once, for the pricing tables of its
// INUM entries; structures are told apart by address, and every cold
// Advise generates its candidates afresh, so a session that is asked again
// and again meets new addresses for the same designs each time. Past a
// bound (1,024 structures) the view starts a new numbering and each entry
// rebuilds its table on its next costing, so the heap stops growing. Here
// 8 statements meet 27 candidates a question: from the 20th to the 200th
// question the heap reading moves between −222 and +96 KB; with no bound
// the same 180 questions grew it by 2,136 KB. The ceiling sits at a third
// of that.
func TestSessionNumberingRetentionCeiling(t *testing.T) {
	const ceilingKB = 700
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := designer.AdviceOptions{CandidateOptions: designer.CandidateOptions{IncludeProjections: true, IncludeAggViews: true}}
	s := d.NewDesignSession()
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var before float64
	for i := 0; i < 200; i++ {
		if i == 20 {
			before = heap()
		}
		if _, err := s.Advise(ctx, w, opts); err != nil {
			t.Fatal(err)
		}
	}
	grownKB := (heap() - before) / 1024
	runtime.KeepAlive(s)
	t.Logf("180 more cold questions grew the heap by %.0f KB, ceiling %d KB", grownKB, ceilingKB)
	if grownKB > ceilingKB {
		t.Fatalf("180 more cold questions grew the heap by %.0f KB, ceiling %d KB", grownKB, ceilingKB)
	}
}
