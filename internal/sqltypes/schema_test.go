package sqltypes

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Table: "t", Name: "id", Type: KindInt},
		Column{Table: "t", Name: "name", Type: KindString},
		Column{Table: "u", Name: "id", Type: KindInt},
	)
}

func TestColumnIndexQualified(t *testing.T) {
	s := testSchema()
	i, err := s.ColumnIndex("u", "id")
	if err != nil || i != 2 {
		t.Fatalf("got %d,%v want 2,nil", i, err)
	}
	i, err = s.ColumnIndex("t", "ID") // case-insensitive
	if err != nil || i != 0 {
		t.Fatalf("got %d,%v want 0,nil", i, err)
	}
}

func TestColumnIndexUnqualifiedUnique(t *testing.T) {
	s := testSchema()
	i, err := s.ColumnIndex("", "name")
	if err != nil || i != 1 {
		t.Fatalf("got %d,%v want 1,nil", i, err)
	}
}

func TestColumnIndexAmbiguous(t *testing.T) {
	s := testSchema()
	if _, err := s.ColumnIndex("", "id"); err == nil {
		t.Fatal("want ambiguity error for unqualified id")
	} else if !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguous error, got %v", err)
	}
}

func TestColumnIndexUnknown(t *testing.T) {
	s := testSchema()
	if _, err := s.ColumnIndex("", "nope"); err == nil {
		t.Fatal("want unknown-column error")
	}
}

func TestSchemaConcatAndQualifier(t *testing.T) {
	a := NewSchema(Column{Table: "a", Name: "x", Type: KindInt})
	b := NewSchema(Column{Table: "b", Name: "y", Type: KindString})
	j := a.Concat(b)
	if j.Len() != 2 || j.Columns[0].Name != "x" || j.Columns[1].Name != "y" {
		t.Fatalf("concat wrong: %v", j)
	}
	q := j.WithQualifier("z")
	if q.Columns[0].Table != "z" || q.Columns[1].Table != "z" {
		t.Fatalf("qualifier wrong: %v", q)
	}
	// original untouched
	if j.Columns[0].Table != "a" {
		t.Fatal("WithQualifier must copy")
	}
}

func TestRowCloneAndConcat(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Fatal("clone must not alias")
	}
	j := r.Concat(Row{NewBool(true)})
	if len(j) != 3 || !j[2].Bool() {
		t.Fatalf("concat wrong: %v", j)
	}
}

func TestRelationPreviewAndSizes(t *testing.T) {
	s := NewSchema(Column{Table: "t", Name: "id", Type: KindInt})
	rel := NewRelation(s)
	for i := 0; i < 12; i++ {
		rel.Rows = append(rel.Rows, Row{NewInt(int64(i))})
	}
	if rel.Cardinality() != 12 {
		t.Fatal("cardinality")
	}
	if rel.ByteSize() <= 0 {
		t.Fatal("byte size must be positive")
	}
	str := rel.String()
	if !strings.Contains(str, "[12 rows]") || !strings.Contains(str, "...") {
		t.Fatalf("preview wrong: %s", str)
	}
}

func TestColumnQualifiedName(t *testing.T) {
	if (Column{Name: "x"}).QualifiedName() != "x" {
		t.Fatal("unqualified")
	}
	if (Column{Table: "t", Name: "x"}).QualifiedName() != "t.x" {
		t.Fatal("qualified")
	}
}

// referenceColumnIndex is ColumnIndex as it was written before Lookup: a
// strings.ToLower comparison of every name and qualifier.
func referenceColumnIndex(s *Schema, table, name string) (int, error) {
	found := -1
	lname := strings.ToLower(name)
	ltable := strings.ToLower(table)
	for i, c := range s.Columns {
		if strings.ToLower(c.Name) != lname {
			continue
		}
		if table != "" && strings.ToLower(c.Table) != ltable {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqltypes: ambiguous column reference %q", Column{Table: table, Name: name}.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("sqltypes: unknown column %q", Column{Table: table, Name: name}.QualifiedName())
	}
	return found, nil
}

// TestLookupMatchesToLower checks that the allocation-free case fold agrees
// with the strings.ToLower comparison on random identifiers: ASCII ones,
// as the lexer produces, and ones with runes whose lower case changes byte
// length (the Kelvin sign, dotted capital I) or that fold beyond ASCII.
func TestLookupMatchesToLower(t *testing.T) {
	alphabet := []string{"a", "A", "b", "B", "k", "K", "i", "I", "_", "1", "K", "İ", "é", "É", "ß", "Σ", "σ"}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		cols := make([]Column, 1+rng.Intn(4))
		for j := range cols {
			cols[j] = Column{Table: word(), Name: word()}
		}
		s := NewSchema(cols...)
		table, name := word(), word()
		if rng.Intn(3) == 0 {
			table = ""
		}
		want, wantErr := referenceColumnIndex(s, table, name)
		got, gotErr := s.ColumnIndex(table, name)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ColumnIndex(%q, %q) over %v = (%d, %v), want (%d, %v)", table, name, cols, got, gotErr, want, wantErr)
		}
		idx, ok := s.Lookup(table, name)
		if ok != (wantErr == nil) || (ok && idx != want) {
			t.Fatalf("Lookup(%q, %q) over %v = (%d, %v), want index %d err %v", table, name, cols, idx, ok, want, wantErr)
		}
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	s := NewSchema(
		Column{Table: "orders", Name: "o_id"},
		Column{Table: "orders", Name: "O_Amount"},
		Column{Table: "lineitem", Name: "l_orderkey"},
	)
	allocs := testing.AllocsPerRun(100, func() {
		s.Lookup("LINEITEM", "L_ORDERKEY")
		s.Lookup("", "o_amount")
		s.Lookup("", "missing")
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times per call set", allocs)
	}
}
