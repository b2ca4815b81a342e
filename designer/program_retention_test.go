package designer

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cophy"
)

// TestKeptProgramRetentionCeiling guards what a primed design session keeps
// for its CoPhy program, which the benchmark's readvise_budget workload
// holds once per session: each query's atoms as flat costs and candidate
// ordinals, and the workload members it was priced for. The session of
// TestReAdviseAllocationCeiling (48 statements, tiny dataset) is primed,
// so its view's INUM entries are built; advisors over the same candidates
// then price the same program from warm entries, and the heap grows by
// their programs alone: 4.4 KB each, for 88 atoms and a 2.3 KB copy of the
// workload's members. Sixty-four are kept, so a few KB of noise in a heap
// reading stays below a tenth of a KB a program. The ceiling sits a tenth
// above; the same programs kept 4.8 KB while their flat slices kept the
// spare capacity of the appends that filled them.
func TestKeptProgramRetentionCeiling(t *testing.T) {
	const ceilingKB = 4.9
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewDesignSession()
	if _, err := s.Advise(ctx, w, AdviceOptions{}); err != nil {
		t.Fatal(err)
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	advs := make([]*cophy.Advisor, 64)
	for i := range advs {
		advs[i] = cophy.New(d.eng, s.last.adv.Candidates())
	}
	before := heap()
	for _, adv := range advs {
		res, err := adv.AdviseView(ctx, s.view, w.internal(), cophy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.PricingCalls == 0 {
			t.Fatal("a new advisor answered without building a program")
		}
	}
	perProgramKB := (heap() - before) / 1024 / float64(len(advs))
	runtime.KeepAlive(advs)
	runtime.KeepAlive(s)
	t.Logf("a primed session's program retains %.2f KB, ceiling %.1f KB", perProgramKB, ceilingKB)
	if perProgramKB > ceilingKB {
		t.Fatalf("a primed session's program retains %.2f KB, ceiling %.1f KB", perProgramKB, ceilingKB)
	}
}
