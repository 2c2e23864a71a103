package remote

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// joinAlgo selects the physical join implementation for one join step.
type joinAlgo uint8

const (
	joinHash joinAlgo = iota
	joinINL
	joinMerge
	joinNL
)

// accessChoice selects the access path for one table: "" means sequential
// scan, otherwise the named index is probed.
type accessChoice struct {
	index string
}

// planChoice is one point in the physical plan space.
type planChoice struct {
	access map[string]accessChoice // keyed by effective table name
	joins  []joinAlgo              // one per join step (len(tables)-1)
}

// maxEnumeratedPlans bounds the enumeration to keep Explain cheap.
const maxEnumeratedPlans = 128

// Explain enumerates candidate plans for the fragment statement, estimates
// each with the local cost model (statistics + hardware, zero load), and
// returns the cheapest MaxPlans plans with distinct signatures — the
// wrapper-visible "possible supported execution plans and their estimated
// costs". A down server refuses to explain, like a source that cannot be
// contacted.
func (s *Server) Explain(stmt *sqlparser.SelectStmt) ([]*Plan, error) {
	if s.Down() {
		return nil, &ErrServerDown{ID: s.id}
	}
	cacheKey, versions, cacheable := s.cacheKeyAndVersions(stmt)
	if cacheable {
		if plans := s.planCache.lookup(cacheKey, versions); plans != nil {
			s.telemetry().Active().Counter("remote.stmtcache_hits", s.id).Inc()
			return plans, nil
		}
		s.telemetry().Active().Counter("remote.stmtcache_misses", s.id).Inc()
	}
	tables := stmt.Tables()
	aliasToTable := map[string]string{}
	for _, tr := range tables {
		tab := s.Table(tr.Name)
		if tab == nil {
			return nil, fmt.Errorf("remote: server %s does not host table %q", s.id, tr.Name)
		}
		aliasToTable[tr.EffectiveName()] = tr.Name
	}
	physNames := physicalTables(aliasToTable)

	// Per-table access path candidates.
	accessCands := map[string][]accessChoice{}
	for _, tr := range tables {
		name := tr.EffectiveName()
		cands := []accessChoice{{}}
		for _, idxName := range s.Table(tr.Name).Indexes() {
			cands = append(cands, accessChoice{index: idxName})
		}
		accessCands[name] = cands
	}
	// Per-join-step algorithm candidates (validity is re-checked during
	// assembly; invalid combinations are skipped).
	joinCands := make([][]joinAlgo, len(tables)-1)
	for i := range joinCands {
		joinCands[i] = []joinAlgo{joinHash, joinINL, joinMerge, joinNL}
	}

	est := &estimator{provider: s.statsProviderFor(aliasToTable), server: s}
	seen := map[string]bool{}
	var plans []*Plan
	count := 0
	var walk func(ti int, choice planChoice)
	walk = func(ti int, choice planChoice) {
		if count >= maxEnumeratedPlans {
			return
		}
		if ti < len(tables) {
			name := tables[ti].EffectiveName()
			for _, ac := range accessCands[name] {
				next := choice
				next.access = copyAccess(choice.access)
				next.access[name] = ac
				walk(ti+1, next)
			}
			return
		}
		if len(choice.joins) < len(tables)-1 {
			for _, ja := range joinCands[len(choice.joins)] {
				next := choice
				next.joins = append(append([]joinAlgo{}, choice.joins...), ja)
				walk(ti, next)
			}
			return
		}
		count++
		root, err := s.assemble(stmt, choice)
		if err != nil {
			return // invalid combination (e.g. INL without usable index)
		}
		sig := exec.ExplainTree(root)
		if seen[sig] {
			return
		}
		seen[sig] = true
		ce, err := est.estimatePlan(root)
		if err != nil {
			return
		}
		plans = append(plans, &Plan{
			ServerID:  s.id,
			SQL:       stmt.String(),
			Root:      root,
			Signature: sig,
			Est:       ce,
			Tables:    physNames,
		})
	}
	walk(0, planChoice{})
	if len(plans) == 0 {
		return nil, fmt.Errorf("remote: server %s found no valid plan for %q", s.id, stmt.String())
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Est.TotalMS < plans[j].Est.TotalMS })
	if len(plans) > s.maxPlans {
		plans = plans[:s.maxPlans]
	}
	if cacheable {
		s.planCache.insert(cacheKey, plans, versions)
	}
	return plans, nil
}

// physicalTables returns the sorted, deduplicated physical table names from
// an alias map.
func physicalTables(aliasToTable map[string]string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(aliasToTable))
	for _, t := range aliasToTable {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func copyAccess(m map[string]accessChoice) map[string]accessChoice {
	out := make(map[string]accessChoice, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// assemble builds the operator tree for one plan choice, mirroring
// exec.BuildPlan's predicate placement but honoring access-path and
// join-algorithm choices. It returns an error for invalid choices.
func (s *Server) assemble(stmt *sqlparser.SelectStmt, choice planChoice) (exec.Operator, error) {
	tables := stmt.Tables()

	var pool []sqlparser.Expr
	pool = append(pool, sqlparser.SplitConjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		pool = append(pool, sqlparser.SplitConjuncts(j.On)...)
	}
	pool = dropTrue(pool)

	// Partition the pool into per-table conjuncts and cross-table conjuncts.
	perTable := map[string][]sqlparser.Expr{}
	var cross []sqlparser.Expr
	schemas := make([]*sqltypes.Schema, len(tables))
	for i, tr := range tables {
		schemas[i] = s.Table(tr.Name).Schema().WithQualifier(tr.EffectiveName())
	}
	for _, c := range pool {
		placed := false
		for i, tr := range tables {
			name := tr.EffectiveName()
			if sqlparser.Resolves(c, schemas[i]) {
				perTable[name] = append(perTable[name], c)
				placed = true
				break
			}
		}
		if !placed {
			cross = append(cross, c)
		}
	}

	// Track which inner tables are consumed by INL joins: their leaves are
	// not built independently.
	inlInner := map[string]bool{}
	for i, ja := range choice.joins {
		if ja == joinINL {
			inlInner[tables[i+1].EffectiveName()] = true
		}
	}

	// Build leaves.
	leaves := map[string]exec.Operator{}
	for _, tr := range tables {
		name := tr.EffectiveName()
		if inlInner[name] {
			continue
		}
		tab := s.Table(tr.Name)
		ac := choice.access[name]
		conjuncts := perTable[name]
		var leaf exec.Operator
		if ac.index == "" {
			leaf = &exec.SeqScan{Table: tab, As: name}
		} else {
			idx := tab.Index(ac.index)
			probe, rest, ok := exec.ProbeFromPredicate(conjuncts, name, idx.Column())
			if !ok {
				return nil, fmt.Errorf("remote: no probe for index %s", ac.index)
			}
			if probe.Eq == nil && idx.Kind() == storage.IndexHash {
				return nil, fmt.Errorf("remote: hash index %s cannot serve range", ac.index)
			}
			leaf = &exec.IndexScan{Table: tab, Index: idx, Probe: probe, As: name}
			conjuncts = rest
		}
		if len(conjuncts) > 0 {
			leaf = &exec.Filter{Input: leaf, Pred: sqlparser.JoinConjuncts(conjuncts)}
		}
		leaves[name] = leaf
	}

	current := leaves[tables[0].EffectiveName()]
	if current == nil {
		return nil, fmt.Errorf("remote: first table cannot be an INL inner")
	}
	for step, tr := range tables[1:] {
		name := tr.EffectiveName()
		tab := s.Table(tr.Name)
		algo := choice.joins[step]
		innerSchema := tab.Schema().WithQualifier(name)

		lk, rk, rest, hasKey := exec.ExtractEquiJoinKeys(cross, current.Schema(), innerSchema)
		switch algo {
		case joinHash:
			if !hasKey {
				return nil, fmt.Errorf("remote: no equi key for hash join with %s", name)
			}
			right := leaves[name]
			joined := current.Schema().Concat(right.Schema())
			residuals, remaining := partitionResolvable(rest, joined)
			current = &exec.HashJoin{
				Build:    current,
				Probe:    right,
				BuildKey: lk,
				ProbeKey: rk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
		case joinMerge:
			if !hasKey {
				return nil, fmt.Errorf("remote: no equi key for merge join with %s", name)
			}
			right := leaves[name]
			joined := current.Schema().Concat(right.Schema())
			residuals, remaining := partitionResolvable(rest, joined)
			current = &exec.MergeJoin{
				Left:     current,
				Right:    right,
				LeftKey:  lk,
				RightKey: rk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
		case joinINL:
			if !hasKey {
				return nil, fmt.Errorf("remote: no equi key for INL join with %s", name)
			}
			rref, ok := rk.(*sqlparser.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("remote: INL inner key must be a column")
			}
			idx := tab.IndexOnColumn(rref.Name)
			if idx == nil {
				return nil, fmt.Errorf("remote: no index on %s.%s for INL", name, rref.Name)
			}
			joined := current.Schema().Concat(innerSchema)
			residuals, remaining := partitionResolvable(rest, joined)
			// Inner single-table conjuncts also become residuals.
			residuals = append(residuals, perTable[name]...)
			current = &exec.IndexNLJoin{
				Outer:    current,
				Inner:    tab,
				Index:    idx,
				InnerAs:  name,
				OuterKey: lk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
		case joinNL:
			if hasKey {
				// Let hash/INL cover keyed joins; NL duplicates them with
				// strictly worse cost, so reject to prune the space.
				return nil, fmt.Errorf("remote: NL join pruned when equi key exists")
			}
			right := leaves[name]
			joined := current.Schema().Concat(right.Schema())
			preds, remaining := partitionResolvable(cross, joined)
			current = &exec.NestedLoopJoin{Outer: current, Inner: right, Pred: sqlparser.JoinConjuncts(preds)}
			cross = remaining
		}
	}
	if len(cross) > 0 {
		current = &exec.Filter{Input: current, Pred: sqlparser.JoinConjuncts(cross)}
	}
	return exec.BuildTop(stmt, current)
}

func dropTrue(list []sqlparser.Expr) []sqlparser.Expr {
	out := list[:0]
	for _, e := range list {
		if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Bool() {
			continue
		}
		out = append(out, e)
	}
	return out
}

func partitionResolvable(list []sqlparser.Expr, schema *sqltypes.Schema) (resolvable, remaining []sqlparser.Expr) {
	for _, c := range list {
		if sqlparser.Resolves(c, schema) {
			resolvable = append(resolvable, c)
		} else {
			remaining = append(remaining, c)
		}
	}
	return resolvable, remaining
}
