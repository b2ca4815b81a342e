package benchmark

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/designer"
	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// probeEnv is a private engine over the same generated dataset as the
// workload's designer. The facade hides its engine, so the staged replica
// and the per-layer stopwatches call the layers' public functions on this
// twin: same seed, same data, same statistics, same advice.
type probeEnv struct {
	store *storage.Store
	eng   *engine.Engine
	// generateS is how long workload.Generate took to make the dataset.
	generateS float64
}

func newProbeEnv(seed int64) (*probeEnv, error) {
	sz, err := workload.SizeByName(dataset)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	store, err := workload.Generate(sz, seed)
	if err != nil {
		return nil, err
	}
	p := &probeEnv{store: store, generateS: time.Since(t0).Seconds()}
	p.eng = engine.New(store.Schema, store.Stats, store.MaterializedConfiguration())
	return p, nil
}

// parse turns SQL text into a resolved workload the way the facade's
// WorkloadFromSQL does (ids q0, q1, …, weight 1), behind an id prefix.
func (p *probeEnv) parse(prefix string, sqls []string) (*workload.Workload, error) {
	w := &workload.Workload{}
	for i, sql := range sqls {
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return nil, err
		}
		if err := sqlparse.Resolve(stmt, p.store.Schema); err != nil {
			return nil, err
		}
		w.Queries = append(w.Queries, workload.Query{ID: fmt.Sprintf("%sq%d", prefix, i), SQL: sql, Weight: 1, Stmt: stmt})
	}
	return w, nil
}

// adviceKey identifies an advice: the staged replica and the facade must
// agree on it.
type adviceKey struct {
	keys      []string
	objective float64
	newTotal  float64
}

func keyOf(a *designer.Advice) adviceKey {
	return adviceKey{keys: indexKeys(a.Indexes), objective: a.Solver.Objective, newTotal: a.Report.NewTotal}
}

func (k adviceKey) check() float64 { return k.objective + k.newTotal + float64(len(k.keys)) }

func (k adviceKey) equal(want adviceKey) error {
	if strings.Join(k.keys, ",") != strings.Join(want.keys, ",") {
		return fmt.Errorf("indexes %v, facade advised %v", k.keys, want.keys)
	}
	if !near(k.objective, want.objective) || !near(k.newTotal, want.newTotal) {
		return fmt.Errorf("objective %.6f / total %.6f, facade had %.6f / %.6f", k.objective, k.newTotal, want.objective, want.newTotal)
	}
	return nil
}

// replicaQuestion is one advise question put to the staged replica: SQL
// text (parsed as stage one) or an already parsed workload.
type replicaQuestion struct {
	sql      []string
	idPrefix string
	w        *workload.Workload
	opts     designer.AdviceOptions
}

// replicaState is what a warm re-advise reuses from the previous answer.
type replicaState struct {
	w     *workload.Workload
	cands []*catalog.Index
	basis []string
	eval  *engine.EvalState
}

// replicaStages lists the stage spans in pipeline order; "lp" is the child
// of "cophy" the solver reports through SolveTime.
var replicaStages = []string{"parse", "candidates", "prepare", "cophy", "lp", "autopart", "report", "interaction", "schedule", "ddl"}

// replica answers an advise question the way designer.advisePipeline does,
// but stage by stage through the layers' public functions, with a span
// around each. prev (may be nil) makes it a warm re-advise: candidates
// reused, solver warm-started, report delta-costed.
func (p *probeEnv) replica(ctx context.Context, q replicaQuestion, prev *replicaState, tr *tracer, root int) (adviceKey, *replicaState, error) {
	answer := tr.answerOf(root)
	last := 0 // the latest stage's span
	stage := func(name string, fn func() error) error {
		last = tr.begin(root, answer, name)
		err := fn()
		tr.end(last)
		return err
	}

	iw := q.w
	if iw == nil {
		if err := stage("parse", func() (err error) {
			iw, err = p.parse(q.idPrefix, q.sql)
			return err
		}); err != nil {
			return adviceKey{}, nil, err
		}
	}
	v := p.eng.Pin()
	if prev != nil && prev.w.Fingerprint() != iw.Fingerprint() {
		prev = nil
	}

	var cands []*catalog.Index
	if prev != nil {
		cands = prev.cands
	} else {
		_ = stage("candidates", func() error {
			cands = v.Session().GenerateCandidates(iw, whatif.DefaultCandidateOptions())
			return nil
		})
		// The pipeline prepares lazily inside the first sweep; preparing
		// here first gives INUM's template building its own span.
		if err := stage("prepare", func() error { return v.Prepare(ctx, iw, cands) }); err != nil {
			return adviceKey{}, nil, err
		}
	}

	copts := cophy.DefaultOptions()
	copts.StorageBudgetPages = q.opts.StorageBudgetPages
	if prev != nil {
		copts.WarmStartKeys = prev.basis
	}
	var cres *cophy.Result
	if err := stage("cophy", func() (err error) {
		cres, err = cophy.New(p.eng, cands).AdviseView(ctx, v, iw, copts)
		return err
	}); err != nil {
		return adviceKey{}, nil, err
	}
	tr.add(last, answer, "lp", cres.SolveTime)
	cfg := catalog.NewConfiguration()
	for _, ix := range cres.Indexes {
		cfg = cfg.WithIndex(ix)
	}

	if q.opts.Partitions {
		if err := stage("autopart", func() error {
			pres, err := autopart.New(p.eng).AdviseView(ctx, v, iw, cfg, autopart.DefaultOptions())
			if err == nil && pres.Improvement() > 0 {
				cfg = pres.Config
			}
			return err
		}); err != nil {
			return adviceKey{}, nil, err
		}
	}

	var prevEval *engine.EvalState
	if prev != nil {
		prevEval = prev.eval
	}
	var rep *whatif.Report
	var evalState *engine.EvalState
	if err := stage("report", func() (err error) {
		rep, evalState, err = v.EvaluateDelta(ctx, iw, cfg, prevEval)
		return err
	}); err != nil {
		return adviceKey{}, nil, err
	}

	order := cres.Indexes
	if q.opts.Interactions && len(cres.Indexes) >= 2 {
		if err := stage("interaction", func() error {
			_, err := interaction.AnalyzeView(ctx, v, iw, cres.Indexes, interaction.DefaultOptions())
			return err
		}); err != nil {
			return adviceKey{}, nil, err
		}
		if err := stage("schedule", func() error {
			s, err := schedule.New(p.eng).GreedyView(ctx, v, iw, cres.Indexes)
			if err == nil && len(s.Steps) == len(cres.Indexes) {
				order = order[:0:0]
				for _, st := range s.Steps {
					order = append(order, st.Index)
				}
			}
			return err
		}); err != nil {
			return adviceKey{}, nil, err
		}
	}

	_ = stage("ddl", func() error {
		var b strings.Builder
		for i, ix := range order {
			b.WriteString(ix.DDL(fmt.Sprintf("idx_%s_%d", strings.ToLower(ix.Table), i)))
			b.WriteString("\n")
		}
		_ = b.String()
		return nil
	})

	basis := make([]string, len(cres.Indexes))
	for i, ix := range cres.Indexes {
		basis[i] = ix.Key()
	}
	keys := append([]string(nil), basis...)
	sort.Strings(keys)
	key := adviceKey{keys: keys, objective: cres.Objective, newTotal: rep.NewTotal}
	return key, &replicaState{w: iw, cands: cands, basis: basis, eval: evalState}, nil
}
