// Package exec implements the physical operators shared by the remote
// servers' engines and the integrator's local merge layer: scans, filters,
// projections, joins, aggregation, sort, distinct and limit.
//
// Every operator charges its true resource consumption (CPU operations,
// sequential IO pages, and cache-friendly page touches) to the execution
// Context. The remote server's load model converts those resources into
// simulated response time; the same formulas over *estimated* cardinalities
// produce the optimizer's cost estimate. The difference between the two —
// amplified by load and network conditions — is exactly the signal the
// paper's Query Cost Calibrator learns.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
)

// Resources accumulates the resource consumption of an execution.
type Resources struct {
	// CPUOps counts tuple-processing operations (comparisons, hashes,
	// arithmetic) in abstract units.
	CPUOps float64
	// IOPages counts sequential page reads that always hit the disk arm
	// (large scans); insensitive to buffer-pool pressure.
	IOPages float64
	// CachedPages counts page touches that normally hit the buffer pool
	// (index probes, small-table rereads). Under heavy update load these
	// degrade toward real IO — the mechanism behind Figure 9's QT2 collapse.
	CachedPages float64
	// OutBytes is the byte volume of the final result, for the network model.
	OutBytes int
}

// Add accumulates other into r.
func (r *Resources) Add(other Resources) {
	r.CPUOps += other.CPUOps
	r.IOPages += other.IOPages
	r.CachedPages += other.CachedPages
	r.OutBytes += other.OutBytes
}

// String renders the consumption compactly.
func (r Resources) String() string {
	return fmt.Sprintf("cpu=%.0f io=%.0f cached=%.0f out=%dB", r.CPUOps, r.IOPages, r.CachedPages, r.OutBytes)
}

// Context carries per-execution state. Executions are single-goroutine.
type Context struct {
	Res Resources
}

// Operator is a physical operator producing a materialized relation.
type Operator interface {
	// Schema returns the output schema without executing.
	Schema() *sqltypes.Schema
	// Execute runs the operator, charging resources to ctx.
	Execute(ctx *Context) (*sqltypes.Relation, error)
	// Explain renders this node (children indented by the caller).
	Explain() string
	// Children returns input operators, for plan display.
	Children() []Operator
}

// ExplainTree renders an operator tree.
func ExplainTree(op Operator) string {
	var b strings.Builder
	explainInto(&b, op, 0)
	return b.String()
}

func explainInto(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(op.Explain())
	b.WriteString("\n")
	for _, c := range op.Children() {
		explainInto(b, c, depth+1)
	}
}

// BlockingStage walks a materialized plan and returns the name of the first
// pipeline-breaking operator ("sort", "aggregate" or "distinct"), or "" when
// the plan pipelines. The remote cursor uses this to decide whether a plan's
// output can be split into batches on the first/next-tuple timing model; the
// integrator reports it on the merge span.
func BlockingStage(op Operator) string {
	switch op.(type) {
	case *Sort:
		return "sort"
	case *Aggregate, *ShardAggFinal:
		return "aggregate"
	case *Distinct:
		return "distinct"
	}
	for _, c := range op.Children() {
		if s := BlockingStage(c); s != "" {
			return s
		}
	}
	return ""
}

// Values is a leaf operator over already-materialized rows — the
// integrator wraps remote fragment results in Values before merging them.
type Values struct {
	// Rel holds the rows in row form; nil for the integrator's leaves.
	Rel *sqltypes.Relation
	// Col, when non-nil, is the rows in columnar form; ExecuteVectorized
	// uses it directly so fragment results shipped as batches never round-trip
	// through rows. When both are set, Col.ToRelation() row-equals Rel.
	Col *colbatch.Batch
	// Label names the source in EXPLAIN output.
	Label string
}

// Schema implements Operator.
func (v *Values) Schema() *sqltypes.Schema {
	if v.Rel != nil {
		return v.Rel.Schema
	}
	return v.Col.Schema
}

// Execute implements Operator. It charges one CPU op per row (cursor
// iteration) and no IO: the data is already local. A columnar-only Values
// materializes rows here — the row kernels are the fallback path, and the
// charge stays one op per row either way.
func (v *Values) Execute(ctx *Context) (*sqltypes.Relation, error) {
	rel := v.Rel
	if rel == nil {
		rel = v.Col.ToRelation()
	}
	ctx.Res.CPUOps += float64(len(rel.Rows))
	return rel, nil
}

// Explain implements Operator.
func (v *Values) Explain() string {
	label := v.Label
	if label == "" {
		label = "values"
	}
	n := 0
	if v.Rel != nil {
		n = len(v.Rel.Rows)
	} else if v.Col != nil {
		n = v.Col.Len()
	}
	return fmt.Sprintf("VALUES %s [%d rows]", label, n)
}

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }
