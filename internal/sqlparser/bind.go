package sqlparser

import "repro/internal/sqltypes"

// Bind returns a copy of e in which every column reference that resolves
// uniquely in schema carries its ordinal, so Eval against that same schema
// reads row[i] instead of searching the schema for every row. The copy
// renders exactly like e. References that are unknown or ambiguous stay
// unbound: Eval reports them at the same row and with the same error as
// for e, and a kernel that never evaluates (an empty input) never fails.
// Row kernels bind once per call, before their row loop. Literals are
// shared with e; e itself is never modified, so a plan's expressions stay
// safe to share across goroutines.
func Bind(e Expr, schema *sqltypes.Schema) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		i, ok := schema.Lookup(x.Table, x.Name)
		if !ok {
			return x
		}
		return &ColumnRef{Table: x.Table, Name: x.Name, schema: schema, ord: i}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: Bind(x.Left, schema), Right: Bind(x.Right, schema)}
	case *NotExpr:
		return &NotExpr{Inner: Bind(x.Inner, schema)}
	case *IsNullExpr:
		return &IsNullExpr{Inner: Bind(x.Inner, schema), Negate: x.Negate}
	case *InExpr:
		return &InExpr{Needle: Bind(x.Needle, schema), List: bindAll(x.List, schema), Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{Subject: Bind(x.Subject, schema), Lo: Bind(x.Lo, schema), Hi: Bind(x.Hi, schema), Negate: x.Negate}
	case *LikeExpr:
		return &LikeExpr{Subject: Bind(x.Subject, schema), Pattern: x.Pattern, Negate: x.Negate}
	case *AggExpr:
		if x.Arg == nil {
			return x
		}
		return &AggExpr{Func: x.Func, Arg: Bind(x.Arg, schema)}
	case *FuncExpr:
		return &FuncExpr{Name: x.Name, Args: bindAll(x.Args, schema)}
	default:
		// Literals, and a nil expression, carry no column references.
		return e
	}
}

func bindAll(list []Expr, schema *sqltypes.Schema) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = Bind(e, schema)
	}
	return out
}

// Resolves reports whether every column reference in e names exactly one
// column of schema: the test the planners use to place a conjunct on the
// narrowest input that can evaluate it.
func Resolves(e Expr, schema *sqltypes.Schema) bool {
	return eachColumnRef(e, func(ref *ColumnRef) bool {
		_, ok := schema.Lookup(ref.Table, ref.Name)
		return ok
	})
}

// eachColumnRef calls fn on every column reference in e, left to right,
// and stops at the first call that returns false; it reports whether every
// call returned true.
func eachColumnRef(e Expr, fn func(*ColumnRef) bool) bool {
	switch x := e.(type) {
	case *ColumnRef:
		return fn(x)
	case *BinaryExpr:
		return eachColumnRef(x.Left, fn) && eachColumnRef(x.Right, fn)
	case *NotExpr:
		return eachColumnRef(x.Inner, fn)
	case *IsNullExpr:
		return eachColumnRef(x.Inner, fn)
	case *InExpr:
		if !eachColumnRef(x.Needle, fn) {
			return false
		}
		for _, item := range x.List {
			if !eachColumnRef(item, fn) {
				return false
			}
		}
	case *BetweenExpr:
		return eachColumnRef(x.Subject, fn) && eachColumnRef(x.Lo, fn) && eachColumnRef(x.Hi, fn)
	case *LikeExpr:
		return eachColumnRef(x.Subject, fn)
	case *AggExpr:
		if x.Arg != nil {
			return eachColumnRef(x.Arg, fn)
		}
	case *FuncExpr:
		for _, a := range x.Args {
			if !eachColumnRef(a, fn) {
				return false
			}
		}
	}
	return true
}
