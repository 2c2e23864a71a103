package sqlparser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// bindSchema has an ambiguous unqualified name (a), a differently-cased
// stored name (B), and a NULL-heavy column (d).
var bindSchema = sqltypes.NewSchema(
	sqltypes.Column{Table: "t", Name: "a", Type: sqltypes.KindInt},
	sqltypes.Column{Table: "t", Name: "B", Type: sqltypes.KindString},
	sqltypes.Column{Table: "u", Name: "a", Type: sqltypes.KindInt},
	sqltypes.Column{Table: "u", Name: "c", Type: sqltypes.KindFloat},
	sqltypes.Column{Table: "T", Name: "d", Type: sqltypes.KindInt},
)

// Reference spellings: resolvable, ambiguous, unknown, and case variants of
// each, qualified and not.
var (
	bindNames  = []string{"a", "A", "b", "B", "c", "C", "d", "D", "zz"}
	bindQuals  = []string{"", "", "t", "T", "u", "U", "v"}
	bindFuncs  = []string{"ABS", "UPPER", "LOWER", "LENGTH", "COALESCE", "SUBSTR", "MOD", "ROUND", "FLOOR"}
	bindBinOps = []BinaryOp{OpAnd, OpOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAdd, OpSub, OpMul, OpDiv}
)

func randomLiteral(rng *rand.Rand) Expr {
	switch rng.Intn(5) {
	case 0:
		return &Literal{Val: sqltypes.Null}
	case 1:
		return &Literal{Val: sqltypes.NewInt(rng.Int63n(21) - 10)}
	case 2:
		return &Literal{Val: sqltypes.NewFloat(rng.Float64()*20 - 10)}
	case 3:
		return &Literal{Val: sqltypes.NewBool(rng.Intn(2) == 0)}
	default:
		return &Literal{Val: sqltypes.NewString(strings.Repeat("h", rng.Intn(4)))}
	}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return randomLiteral(rng)
		}
		return &ColumnRef{Table: bindQuals[rng.Intn(len(bindQuals))], Name: bindNames[rng.Intn(len(bindNames))]}
	}
	sub := func() Expr { return randomExpr(rng, depth-1) }
	switch rng.Intn(9) {
	case 0, 1:
		return &BinaryExpr{Op: bindBinOps[rng.Intn(len(bindBinOps))], Left: sub(), Right: sub()}
	case 2:
		return &NotExpr{Inner: sub()}
	case 3:
		return &IsNullExpr{Inner: sub(), Negate: rng.Intn(2) == 0}
	case 4:
		list := make([]Expr, 1+rng.Intn(3))
		for i := range list {
			list[i] = sub()
		}
		return &InExpr{Needle: sub(), List: list, Negate: rng.Intn(2) == 0}
	case 5:
		return &BetweenExpr{Subject: sub(), Lo: sub(), Hi: sub(), Negate: rng.Intn(2) == 0}
	case 6:
		return &LikeExpr{Subject: sub(), Pattern: []string{"h%", "%", "_h", "x"}[rng.Intn(4)], Negate: rng.Intn(2) == 0}
	case 7:
		name := bindFuncs[rng.Intn(len(bindFuncs))]
		args := []Expr{sub()}
		if name == "COALESCE" || name == "SUBSTR" || name == "MOD" || name == "ROUND" {
			args = append(args, sub())
		}
		return &FuncExpr{Name: name, Args: args}
	default:
		if rng.Intn(3) == 0 {
			return &AggExpr{Func: AggCount}
		}
		return &AggExpr{Func: AggSum, Arg: sub()}
	}
}

func randomBindRow(rng *rand.Rand) sqltypes.Row {
	row := sqltypes.Row{
		sqltypes.NewInt(rng.Int63n(21) - 10),
		sqltypes.NewString(strings.Repeat("h", rng.Intn(4))),
		sqltypes.NewInt(rng.Int63n(5)),
		sqltypes.NewFloat(rng.Float64() * 10),
		sqltypes.Null,
	}
	for i := range row {
		if rng.Intn(5) == 0 {
			row[i] = sqltypes.Null
		}
	}
	if rng.Intn(2) == 0 {
		row[4] = sqltypes.NewInt(rng.Int63n(3))
	}
	return row
}

// sameOutcome reports whether two Eval results agree: the same value (kind
// and rendering) or the same error text.
func sameOutcome(v1 sqltypes.Value, err1 error, v2 sqltypes.Value, err2 error) bool {
	if err1 != nil || err2 != nil {
		return err1 != nil && err2 != nil && err1.Error() == err2.Error()
	}
	return v1.Kind() == v2.Kind() && v1.String() == v2.String()
}

// TestBindPreservesStringAndEval is Bind's identity property: over random
// expressions whose references resolve, are ambiguous, are unknown or are
// spelled in another case, the bound copy renders exactly like the
// original and evaluates to the same value or the same error, both against
// the schema it was bound to and against an equal schema it was not.
func TestBindPreservesStringAndEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	other := sqltypes.NewSchema(bindSchema.Columns...)
	bound, unbound := 0, 0
	for i := 0; i < 4000; i++ {
		e := randomExpr(rng, 1+rng.Intn(4))
		b := Bind(e, bindSchema)
		if b.String() != e.String() {
			t.Fatalf("Bind changed rendering: %s -> %s", e, b)
		}
		for _, ref := range CollectColumnRefs(b, nil) {
			if ref.schema != nil {
				bound++
			} else {
				unbound++
			}
		}
		for r := 0; r < 4; r++ {
			row := randomBindRow(rng)
			v1, err1 := Eval(e, row, bindSchema)
			v2, err2 := Eval(b, row, bindSchema)
			if !sameOutcome(v1, err1, v2, err2) {
				t.Fatalf("%s on %v: unbound (%v, %v), bound (%v, %v)", e, row, v1, err1, v2, err2)
			}
			v3, err3 := Eval(b, row, other)
			if !sameOutcome(v1, err1, v3, err3) {
				t.Fatalf("%s on %v against an unbound schema: want (%v, %v), got (%v, %v)", e, row, v1, err1, v3, err3)
			}
		}
	}
	if bound == 0 || unbound == 0 {
		t.Fatalf("generator must produce both bound (%d) and unbound (%d) references", bound, unbound)
	}
}

// TestBindLeavesOriginalUnbound checks that Bind copies rather than mutates:
// the plan's own expression keeps resolving by name.
func TestBindLeavesOriginalUnbound(t *testing.T) {
	e := mustParseExpr(t, "(t.a + u.a) > 3 AND c IS NOT NULL")
	b := Bind(e, bindSchema)
	for _, ref := range CollectColumnRefs(e, nil) {
		if ref.schema != nil {
			t.Fatalf("original reference %s was bound", ref)
		}
	}
	refs := CollectColumnRefs(b, nil)
	if len(refs) != 3 {
		t.Fatalf("bound copy has %d references", len(refs))
	}
	for i, want := range []int{0, 2, 3} {
		if refs[i].schema != bindSchema || refs[i].ord != want {
			t.Fatalf("reference %s bound to ordinal %d, want %d", refs[i], refs[i].ord, want)
		}
	}
	if Bind(nil, bindSchema) != nil {
		t.Fatal("Bind(nil) must stay nil")
	}
}

func mustParseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestResolves(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"t.a > 1", true},
		{"T.A = U.a", true},
		{"b LIKE 'h%'", true},
		{"a > 1", false},      // ambiguous
		{"zz IS NULL", false}, // unknown
		{"t.a + v.a > 0", false},
		{"COALESCE(d, c) BETWEEN 1 AND 2", true},
		{"1 = 1", true},
	}
	for _, c := range cases {
		if got := Resolves(mustParseExpr(t, c.src), bindSchema); got != c.want {
			t.Errorf("Resolves(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}
