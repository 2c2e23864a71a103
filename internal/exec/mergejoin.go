package exec

import (
	"sort"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// MergeJoin joins two inputs on key equality by sorting both sides and
// merging. Without physical sort-order tracking it rarely beats a hash join
// in this engine's cost model, but it widens the enumerable plan space (the
// paper's wrappers return MULTIPLE "possible supported execution plans")
// and dominates when memory pressure would make hash tables spill — a
// dimension deliberately left to the contention model.
type MergeJoin struct {
	Left, Right       Operator
	LeftKey, RightKey sqlparser.Expr
	// Residual, when non-nil, filters joined rows.
	Residual sqlparser.Expr
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *sqltypes.Schema {
	return j.Left.Schema().Concat(j.Right.Schema())
}

type keyedRows struct {
	rows []sqltypes.Row
	keys []sqltypes.Value
}

func sortByKey(rel *sqltypes.Relation, key sqlparser.Expr) (*keyedRows, error) {
	kr := &keyedRows{rows: make([]sqltypes.Row, 0, len(rel.Rows)), keys: make([]sqltypes.Value, 0, len(rel.Rows))}
	key = sqlparser.Bind(key, rel.Schema)
	for _, row := range rel.Rows {
		k, err := sqlparser.Eval(key, row, rel.Schema)
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			continue // NULL keys never join
		}
		kr.rows = append(kr.rows, row)
		kr.keys = append(kr.keys, k)
	}
	idx := make([]int, len(kr.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return sqltypes.Compare(kr.keys[idx[a]], kr.keys[idx[b]]) < 0
	})
	sortedRows := make([]sqltypes.Row, len(idx))
	sortedKeys := make([]sqltypes.Value, len(idx))
	for i, j := range idx {
		sortedRows[i] = kr.rows[j]
		sortedKeys[i] = kr.keys[j]
	}
	kr.rows, kr.keys = sortedRows, sortedKeys
	return kr, nil
}

// Execute implements Operator.
func (j *MergeJoin) Execute(ctx *Context) (*sqltypes.Relation, error) {
	left, err := j.Left.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Execute(ctx)
	if err != nil {
		return nil, err
	}
	outSchema := left.Schema.Concat(right.Schema)
	out := sqltypes.NewRelation(outSchema)
	residual := sqlparser.Bind(j.Residual, outSchema)

	l, err := sortByKey(left, j.LeftKey)
	if err != nil {
		return nil, err
	}
	r, err := sortByKey(right, j.RightKey)
	if err != nil {
		return nil, err
	}
	li, ri := 0, 0
	for li < len(l.rows) && ri < len(r.rows) {
		c := sqltypes.Compare(l.keys[li], r.keys[ri])
		switch {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// Match run: find the extent of equal keys on both sides.
			lEnd := li
			for lEnd < len(l.rows) && sqltypes.Compare(l.keys[lEnd], l.keys[li]) == 0 {
				lEnd++
			}
			rEnd := ri
			for rEnd < len(r.rows) && sqltypes.Compare(r.keys[rEnd], r.keys[ri]) == 0 {
				rEnd++
			}
			for a := li; a < lEnd; a++ {
				for b := ri; b < rEnd; b++ {
					joined := l.rows[a].Concat(r.rows[b])
					if residual != nil {
						ok, err := sqlparser.EvalBool(residual, joined, outSchema)
						if err != nil {
							return nil, err
						}
						if !ok {
							continue
						}
					}
					out.Rows = append(out.Rows, joined)
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	nl, nr := float64(len(left.Rows)), float64(len(right.Rows))
	ctx.Res.CPUOps += nl*log2(nl) + nr*log2(nr) + nl + nr + float64(len(out.Rows))
	return out, nil
}

// Explain implements Operator.
func (j *MergeJoin) Explain() string {
	s := "MERGEJOIN " + j.LeftKey.String() + " = " + j.RightKey.String()
	if j.Residual != nil {
		s += " RESIDUAL " + j.Residual.String()
	}
	return s
}

// Children implements Operator.
func (j *MergeJoin) Children() []Operator { return []Operator{j.Left, j.Right} }
