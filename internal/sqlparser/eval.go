package sqlparser

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqltypes"
)

// Eval evaluates a non-aggregate expression against a row with the given
// schema. Aggregate expressions must be handled by the executor's aggregation
// operator; encountering one here is an error.
func Eval(e Expr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		if x.schema != nil && x.schema == schema {
			return row[x.ord], nil
		}
		i, err := schema.ColumnIndex(x.Table, x.Name)
		if err != nil {
			return sqltypes.Null, err
		}
		return row[i], nil
	case *BinaryExpr:
		return evalBinary(x, row, schema)
	case *NotExpr:
		v, err := Eval(x.Inner, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!truthy(v)), nil
	case *IsNullExpr:
		v, err := Eval(x.Inner, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(v.IsNull() != x.Negate), nil
	case *InExpr:
		return evalIn(x, row, schema)
	case *BetweenExpr:
		return evalBetween(x, row, schema)
	case *LikeExpr:
		return evalLike(x, row, schema)
	case *FuncExpr:
		return evalFunc(x, row, schema)
	case *AggExpr:
		return sqltypes.Null, fmt.Errorf("sqlparser: aggregate %s evaluated outside aggregation", x)
	default:
		return sqltypes.Null, fmt.Errorf("sqlparser: cannot evaluate %T", e)
	}
}

// EvalBool evaluates a predicate; SQL three-valued logic collapses NULL to
// false for filtering purposes.
func EvalBool(e Expr, row sqltypes.Row, schema *sqltypes.Schema) (bool, error) {
	v, err := Eval(e, row, schema)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return truthy(v), nil
}

// Truthy reports SQL truthiness of a non-NULL value: nonzero numerics and
// booleans, non-empty strings. Exported for the vectorized kernels, which
// must collapse predicate results exactly like EvalBool.
func Truthy(v sqltypes.Value) bool { return truthy(v) }

func truthy(v sqltypes.Value) bool {
	switch v.Kind() {
	case sqltypes.KindBool:
		return v.Bool()
	case sqltypes.KindInt:
		return v.Int() != 0
	case sqltypes.KindFloat:
		return v.Float() != 0
	case sqltypes.KindString:
		return v.Str() != ""
	default:
		return false
	}
}

func evalBinary(x *BinaryExpr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	// AND/OR use three-valued logic with short-circuiting.
	switch x.Op {
	case OpAnd, OpOr:
		lv, err := Eval(x.Left, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.Op == OpAnd {
			if !lv.IsNull() && !truthy(lv) {
				return sqltypes.NewBool(false), nil
			}
		} else {
			if !lv.IsNull() && truthy(lv) {
				return sqltypes.NewBool(true), nil
			}
		}
		rv, err := Eval(x.Right, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.Op == OpAnd {
			switch {
			case !rv.IsNull() && !truthy(rv):
				return sqltypes.NewBool(false), nil
			case lv.IsNull() || rv.IsNull():
				return sqltypes.Null, nil
			default:
				return sqltypes.NewBool(true), nil
			}
		}
		switch {
		case !rv.IsNull() && truthy(rv):
			return sqltypes.NewBool(true), nil
		case lv.IsNull() || rv.IsNull():
			return sqltypes.Null, nil
		default:
			return sqltypes.NewBool(false), nil
		}
	}
	lv, err := Eval(x.Left, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	rv, err := Eval(x.Right, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	return ApplyBinary(x.Op, lv, rv)
}

// ApplyBinary applies a non-AND/OR binary operator to two evaluated
// operands, reproducing evalBinary's comparison, arithmetic and error
// behavior. The vectorized expression compiler calls it cell-by-cell for
// operand kinds it has no typed kernel for.
func ApplyBinary(op BinaryOp, lv, rv sqltypes.Value) (sqltypes.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return sqltypes.Null, nil
	}
	if op.IsComparison() {
		c := sqltypes.Compare(lv, rv)
		var res bool
		switch op {
		case OpEq:
			res = c == 0
		case OpNe:
			res = c != 0
		case OpLt:
			res = c < 0
		case OpLe:
			res = c <= 0
		case OpGt:
			res = c > 0
		case OpGe:
			res = c >= 0
		}
		return sqltypes.NewBool(res), nil
	}
	// Arithmetic.
	if !lv.IsNumeric() || !rv.IsNumeric() {
		if op == OpAdd && lv.Kind() == sqltypes.KindString && rv.Kind() == sqltypes.KindString {
			return sqltypes.NewString(lv.Str() + rv.Str()), nil
		}
		return sqltypes.Null, fmt.Errorf("sqlparser: non-numeric operands for %s: %s, %s", op, lv.Kind(), rv.Kind())
	}
	bothInt := lv.Kind() == sqltypes.KindInt && rv.Kind() == sqltypes.KindInt
	switch op {
	case OpAdd:
		if bothInt {
			return sqltypes.NewInt(lv.Int() + rv.Int()), nil
		}
		return sqltypes.NewFloat(lv.Float() + rv.Float()), nil
	case OpSub:
		if bothInt {
			return sqltypes.NewInt(lv.Int() - rv.Int()), nil
		}
		return sqltypes.NewFloat(lv.Float() - rv.Float()), nil
	case OpMul:
		if bothInt {
			return sqltypes.NewInt(lv.Int() * rv.Int()), nil
		}
		return sqltypes.NewFloat(lv.Float() * rv.Float()), nil
	case OpDiv:
		if rv.Float() == 0 {
			return sqltypes.Null, nil // SQL-ish: division by zero yields NULL here
		}
		if bothInt {
			return sqltypes.NewInt(lv.Int() / rv.Int()), nil
		}
		return sqltypes.NewFloat(lv.Float() / rv.Float()), nil
	}
	return sqltypes.Null, fmt.Errorf("sqlparser: unhandled operator %s", op)
}

func evalIn(x *InExpr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	needle, err := Eval(x.Needle, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	if needle.IsNull() {
		return sqltypes.Null, nil
	}
	sawNull := false
	for _, item := range x.List {
		v, err := Eval(item, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(needle, v) == 0 {
			return sqltypes.NewBool(!x.Negate), nil
		}
	}
	if sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(x.Negate), nil
}

func evalBetween(x *BetweenExpr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	v, err := Eval(x.Subject, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	lo, err := Eval(x.Lo, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	hi, err := Eval(x.Hi, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.Null, nil
	}
	in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
	return sqltypes.NewBool(in != x.Negate), nil
}

func evalLike(x *LikeExpr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	v, err := Eval(x.Subject, row, schema)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	if v.Kind() != sqltypes.KindString {
		return sqltypes.Null, fmt.Errorf("sqlparser: LIKE on non-string %s", v.Kind())
	}
	match := likeMatch(v.Str(), x.Pattern)
	return sqltypes.NewBool(match != x.Negate), nil
}

// LikeMatch reports whether s matches a LIKE pattern with % (any run) and
// _ (any single char). Exported for the vectorized kernels.
func LikeMatch(s, pattern string) bool { return likeMatch(s, pattern) }

// likeMatch implements LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return likeExact(s, pattern)
	}
	// Leading segment must be a prefix.
	if parts[0] != "" {
		if len(s) < len(parts[0]) || !likeExact(s[:len(parts[0])], parts[0]) {
			return false
		}
		s = s[len(parts[0]):]
	}
	// Trailing segment must be a suffix.
	last := parts[len(parts)-1]
	if last != "" {
		if len(s) < len(last) || !likeExact(s[len(s)-len(last):], last) {
			return false
		}
		s = s[:len(s)-len(last)]
	}
	// Middle segments must appear in order.
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := indexLike(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return true
}

func likeExact(s, pat string) bool {
	if len(s) != len(pat) {
		return false
	}
	for i := 0; i < len(pat); i++ {
		if pat[i] != '_' && pat[i] != s[i] {
			return false
		}
	}
	return true
}

func indexLike(s, pat string) int {
	for i := 0; i+len(pat) <= len(s); i++ {
		if likeExact(s[i:i+len(pat)], pat) {
			return i
		}
	}
	return -1
}

// evalFunc evaluates a scalar function call.
func evalFunc(x *FuncExpr, row sqltypes.Row, schema *sqltypes.Schema) (sqltypes.Value, error) {
	// COALESCE short-circuits on the first non-NULL argument.
	if x.Name == "COALESCE" {
		for _, a := range x.Args {
			v, err := Eval(a, row, schema)
			if err != nil {
				return sqltypes.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.Null, nil
	}
	args := make([]sqltypes.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := Eval(a, row, schema)
		if err != nil {
			return sqltypes.Null, err
		}
		// Scalar functions are NULL-propagating.
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		args[i] = v
	}
	return ApplyFunc(x.Name, args)
}

// ApplyFunc applies a scalar function (COALESCE excepted — its short-circuit
// is the caller's concern) to fully-evaluated, non-NULL arguments,
// reproducing evalFunc's result and error behavior. Exported for the
// vectorized kernels.
func ApplyFunc(name string, args []sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "ABS":
		if !args[0].IsNumeric() {
			return sqltypes.Null, fmt.Errorf("sqlparser: ABS on %s", args[0].Kind())
		}
		if args[0].Kind() == sqltypes.KindInt {
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return sqltypes.NewInt(n), nil
		}
		return sqltypes.NewFloat(math.Abs(args[0].Float())), nil
	case "ROUND":
		if !args[0].IsNumeric() {
			return sqltypes.Null, fmt.Errorf("sqlparser: ROUND on %s", args[0].Kind())
		}
		digits := 0.0
		if len(args) == 2 {
			if !args[1].IsNumeric() {
				return sqltypes.Null, fmt.Errorf("sqlparser: ROUND digits must be numeric")
			}
			digits = args[1].Float()
		}
		scale := math.Pow(10, digits)
		return sqltypes.NewFloat(math.Round(args[0].Float()*scale) / scale), nil
	case "FLOOR":
		if !args[0].IsNumeric() {
			return sqltypes.Null, fmt.Errorf("sqlparser: FLOOR on %s", args[0].Kind())
		}
		return sqltypes.NewFloat(math.Floor(args[0].Float())), nil
	case "CEIL":
		if !args[0].IsNumeric() {
			return sqltypes.Null, fmt.Errorf("sqlparser: CEIL on %s", args[0].Kind())
		}
		return sqltypes.NewFloat(math.Ceil(args[0].Float())), nil
	case "MOD":
		if args[0].Kind() != sqltypes.KindInt || args[1].Kind() != sqltypes.KindInt {
			return sqltypes.Null, fmt.Errorf("sqlparser: MOD needs integers")
		}
		if args[1].Int() == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(args[0].Int() % args[1].Int()), nil
	case "UPPER":
		if args[0].Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("sqlparser: UPPER on %s", args[0].Kind())
		}
		return sqltypes.NewString(strings.ToUpper(args[0].Str())), nil
	case "LOWER":
		if args[0].Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("sqlparser: LOWER on %s", args[0].Kind())
		}
		return sqltypes.NewString(strings.ToLower(args[0].Str())), nil
	case "LENGTH":
		if args[0].Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("sqlparser: LENGTH on %s", args[0].Kind())
		}
		return sqltypes.NewInt(int64(len(args[0].Str()))), nil
	case "SUBSTR":
		if args[0].Kind() != sqltypes.KindString || !args[1].IsNumeric() {
			return sqltypes.Null, fmt.Errorf("sqlparser: SUBSTR(string, start [, len])")
		}
		s := args[0].Str()
		// SQL SUBSTR is 1-based.
		start := int(args[1].Int()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			if !args[2].IsNumeric() {
				return sqltypes.Null, fmt.Errorf("sqlparser: SUBSTR length must be numeric")
			}
			n := int(args[2].Int())
			if n < 0 {
				n = 0
			}
			if start+n < end {
				end = start + n
			}
		}
		return sqltypes.NewString(s[start:end]), nil
	default:
		return sqltypes.Null, fmt.Errorf("sqlparser: unknown function %q", name)
	}
}
