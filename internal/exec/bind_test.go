package exec

import (
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// TestKernelsUnknownColumnEmptyInput checks what binding once per kernel
// call must keep: a reference that resolves in no column is an error only
// when a row is evaluated, so over an empty input each row kernel still
// succeeds, and over a non-empty one it reports the same error as before.
func TestKernelsUnknownColumnEmptyInput(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "a", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "u", Name: "a", Type: sqltypes.KindInt},
	)
	unknown := &sqlparser.ColumnRef{Name: "zz"}
	ambiguous := &sqlparser.ColumnRef{Name: "a"}
	ops := func(in Operator, ref sqlparser.Expr) map[string]Operator {
		return map[string]Operator{
			"filter":    &Filter{Input: in, Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpGt, Left: ref, Right: &sqlparser.Literal{Val: sqltypes.NewInt(1)}}},
			"project":   &Project{Input: in, Items: []sqlparser.SelectItem{{Expr: ref}}},
			"sort":      &Sort{Input: in, Keys: []sqlparser.OrderItem{{Expr: ref}}},
			"aggregate": &Aggregate{Input: in, GroupBy: []sqlparser.Expr{ref}, Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: ref}}},
			"hashjoin":  &HashJoin{Build: in, Probe: in, BuildKey: ref, ProbeKey: ref},
			"mergejoin": &MergeJoin{Left: in, Right: in, LeftKey: ref, RightKey: ref},
			"nljoin":    &NestedLoopJoin{Outer: in, Inner: in, Pred: ref},
		}
	}
	empty := &Values{Rel: sqltypes.NewRelation(schema)}
	for _, ref := range []*sqlparser.ColumnRef{unknown, ambiguous} {
		for name, op := range ops(empty, ref) {
			rel, err := op.Execute(&Context{})
			if err != nil {
				t.Fatalf("%s over an empty input naming %s: %v", name, ref, err)
			}
			if name != "aggregate" && len(rel.Rows) != 0 {
				t.Fatalf("%s over an empty input produced %d rows", name, len(rel.Rows))
			}
		}
	}

	one := &Values{Rel: &sqltypes.Relation{Schema: schema, Rows: []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(2)}}}}
	for _, ref := range []*sqlparser.ColumnRef{unknown, ambiguous} {
		_, want := schema.ColumnIndex(ref.Table, ref.Name)
		for name, op := range ops(one, ref) {
			if name == "nljoin" {
				continue // its predicate sees the doubled join schema
			}
			_, err := op.Execute(&Context{})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%s naming %s: got %v, want %v", name, ref, err, want)
			}
		}
	}
}

// TestProjectPresizesRows checks that the projection kernel allocates each
// output row at the projected width, star expansion included.
func TestProjectPresizesRows(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "a", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "b", Type: sqltypes.KindInt},
	)
	in := &sqltypes.Relation{Schema: schema}
	for i := 0; i < 5; i++ {
		in.Rows = append(in.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(-i))})
	}
	items := []sqlparser.SelectItem{
		{Expr: &sqlparser.ColumnRef{Table: "T", Name: "B"}},
		{Star: true},
		{Expr: &sqlparser.BinaryExpr{Op: sqlparser.OpAdd, Left: &sqlparser.ColumnRef{Name: "a"}, Right: &sqlparser.Literal{Val: sqltypes.NewInt(1)}}},
	}
	out, err := projectRel(items, in, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cap(out.Rows) != len(in.Rows) {
		t.Fatalf("output rows cap %d, want %d", cap(out.Rows), len(in.Rows))
	}
	for i, row := range out.Rows {
		if len(row) != 4 || cap(row) != 4 {
			t.Fatalf("row %d: len %d cap %d, want 4", i, len(row), cap(row))
		}
		if row[0].Int() != int64(-i) || row[1].Int() != int64(i) || row[3].Int() != int64(i+1) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}
