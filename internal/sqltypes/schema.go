package sqltypes

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Column describes one column of a schema.
type Column struct {
	// Table is the (possibly aliased) table qualifier; may be empty for
	// computed columns.
	Table string
	// Name is the column name.
	Name string
	// Type is the declared value kind.
	Type Kind
}

// QualifiedName returns "table.name" or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex resolves a possibly-qualified column reference to an index.
// It returns an error when the reference is unknown or ambiguous.
func (s *Schema) ColumnIndex(table, name string) (int, error) {
	i, ok := s.Lookup(table, name)
	if ok {
		return i, nil
	}
	if i >= 0 {
		return -1, fmt.Errorf("sqltypes: ambiguous column reference %q", Column{Table: table, Name: name}.QualifiedName())
	}
	return -1, fmt.Errorf("sqltypes: unknown column %q", Column{Table: table, Name: name}.QualifiedName())
}

// Lookup resolves a possibly-qualified column reference without allocating.
// Names and qualifiers compare case-insensitively, exactly as
// strings.ToLower on both sides would. It returns (index, true) for a
// unique match, (first match, false) when the reference is ambiguous and
// (-1, false) when it is unknown.
func (s *Schema) Lookup(table, name string) (int, bool) {
	found := -1
	for i, c := range s.Columns {
		if !EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return found, false
		}
		found = i
	}
	return found, found >= 0
}

// EqualFold reports whether two identifiers are equal ignoring case, exactly
// as strings.ToLower(a) == strings.ToLower(b) but without allocating: ASCII
// strings, which is every identifier the SQL lexer produces, compare byte by
// byte with the ASCII case fold, and any non-ASCII byte takes the ToLower
// path so that the two can never disagree.
func EqualFold(a, b string) bool {
	if len(a) != len(b) {
		if isASCII(a) && isASCII(b) {
			return false
		}
		return strings.ToLower(a) == strings.ToLower(b)
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			return strings.ToLower(a) == strings.ToLower(b)
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Concat returns a new schema that is s followed by other, as produced by a
// join.
func (s *Schema) Concat(other *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, other.Columns...)
	return &Schema{Columns: cols}
}

// WithQualifier returns a copy of the schema with every column's table
// qualifier replaced, as when a table is aliased in FROM.
func (s *Schema) WithQualifier(q string) *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	for i := range cols {
		cols[i].Table = q
	}
	return &Schema{Columns: cols}
}

// String renders the schema for plan display.
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.QualifiedName() + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is a tuple of values, positionally matched to a schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row that is r followed by other.
func (r Row) Concat(other Row) Row {
	out := make(Row, 0, len(r)+len(other))
	out = append(out, r...)
	out = append(out, other...)
	return out
}

// ByteSize approximates the wire size of the row.
func (r Row) ByteSize() int {
	n := 4 // row header
	for _, v := range r {
		n += v.ByteSize()
	}
	return n
}

// Relation is a materialized result set: a schema and its rows.
type Relation struct {
	Schema *Schema
	Rows   []Row
}

// NewRelation builds an empty relation over a schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{Schema: schema}
}

// Cardinality returns the number of rows.
func (r *Relation) Cardinality() int { return len(r.Rows) }

// ByteSize approximates the wire size of the whole relation.
func (r *Relation) ByteSize() int {
	n := 16
	for _, row := range r.Rows {
		n += row.ByteSize()
	}
	return n
}

// String renders a compact preview of the relation (schema plus up to ten
// rows), for examples and debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteString(fmt.Sprintf(" [%d rows]", len(r.Rows)))
	for i, row := range r.Rows {
		if i >= 10 {
			b.WriteString("\n  ...")
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		b.WriteString("\n  " + strings.Join(parts, " | "))
	}
	return b.String()
}
