// Streaming data path against its store-and-forward reference (white-box:
// package fedqcc so the reference can drive the meta-wrapper directly).
// TestStreamingFasterThanStoreAndForward is the acceptance gate;
// BenchmarkStreamingLargeResult writes BENCH_streaming.json.
package fedqcc

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// streamingBenchFederation builds the large-result slow-link scenario the
// streaming baseline regresses against: one midrange server behind a
// 50 KB/s, 20 ms link, large tables at scale 10 (10k-row lineitem).
func streamingBenchFederation(tb testing.TB) *Federation {
	tb.Helper()
	b := NewBuilder(7).
		AddServer("S1", ProfileMidrange, LinkSpec{LatencyMS: 20, BandwidthKBps: 50})
	for _, spec := range StandardSchema(10) {
		b.AddGeneratedTable("S1", spec)
	}
	fed, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return fed
}

const streamingBenchQuery = "SELECT l.l_orderkey, l.l_price FROM lineitem AS l"

// storeAndForward runs sql the store-and-forward way on fed, which must push
// the whole statement to one source: the compiled fragment goes through
// MetaWrapper.ExecuteFragment, so the source finishes the entire result
// before shipping it as one batch, and the integrator's pass-through merge
// is charged on top. It returns the rows and that response time — the
// reference the streamed data path must beat.
func storeAndForward(tb testing.TB, fed *Federation, sql string) (*sqltypes.Relation, Time) {
	tb.Helper()
	gp, err := fed.ii.Compile(sql)
	if err != nil {
		tb.Fatal(err)
	}
	if !gp.Decomp.SingleFragment {
		tb.Fatalf("%s: store-and-forward reference needs a single-fragment plan, got %d fragments", sql, len(gp.Fragments))
	}
	f := gp.Fragments[0]
	out, err := fed.mw.ExecuteFragment(context.Background(), f.ServerID, f.Spec.Stmt.String(), f.Plan, f.RawEst)
	if err != nil {
		tb.Fatalf("%s: store-and-forward: %v", sql, err)
	}
	rel := out.Result.Col.ToRelation()
	merge := fed.iiNode.Observe(exec.Resources{CPUOps: float64(rel.Cardinality())})
	return rel, out.ResponseTime + merge
}

func relationsIdentical(a, b *sqltypes.Relation) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// TestStreamingFasterThanStoreAndForward is the streaming acceptance check:
// a >=10k-row fragment shipped over a bandwidth-limited link must finish
// strictly sooner streamed (remote compute overlapping transfer) than
// store-and-forward, while producing identical rows — and the rows must stay
// identical across scan, join, aggregate and order-by shapes.
func TestStreamingFasterThanStoreAndForward(t *testing.T) {
	queries := []string{
		"SELECT l.l_orderkey, l.l_price FROM lineitem AS l",                                     // large scan
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey", // join
		"SELECT l.l_orderkey, SUM(l.l_price) FROM lineitem AS l GROUP BY l.l_orderkey",          // aggregate
		"SELECT l.l_orderkey FROM lineitem AS l ORDER BY l.l_price DESC",                        // order-by
	}

	streamed := streamingBenchFederation(t)
	reference := streamingBenchFederation(t)
	for i, sql := range queries {
		rs, err := streamed.Query(sql)
		if err != nil {
			t.Fatalf("streamed %s: %v", sql, err)
		}
		rows, saf := storeAndForward(t, reference, sql)
		if !relationsIdentical(rs.Rows, rows) {
			t.Fatalf("rows diverge for %s: %d streamed vs %d store-and-forward",
				sql, len(rs.Rows.Rows), len(rows.Rows))
		}
		if rs.FirstRowTime > rs.ResponseTime {
			t.Fatalf("%s: first row (%v) after response (%v)", sql, rs.FirstRowTime, rs.ResponseTime)
		}
		if i == 0 {
			// The pipelining win itself, on the large scan: production of
			// batch k+1 overlaps the transfer of batch k.
			if len(rs.Rows.Rows) < 10000 {
				t.Fatalf("acceptance scenario needs >=10k rows, got %d", len(rs.Rows.Rows))
			}
			if rs.ResponseTime >= saf {
				t.Fatalf("streamed response %v must beat store-and-forward %v", rs.ResponseTime, saf)
			}
			if rs.FirstRowTime <= 0 || rs.FirstRowTime >= rs.ResponseTime {
				t.Fatalf("time-to-first-row %v must fall strictly inside (0, %v)", rs.FirstRowTime, rs.ResponseTime)
			}
		}
	}
}

// streamingBenchResult is the perf baseline written to BENCH_streaming.json.
type streamingBenchResult struct {
	Scenario string `json:"scenario"`
	Query    string `json:"query"`
	Rows     int    `json:"rows"`
	// Virtual (simulated) milliseconds.
	StreamedFirstRowMS   float64 `json:"streamed_first_row_ms"`
	StreamedResponseMS   float64 `json:"streamed_response_ms"`
	MonolithicResponseMS float64 `json:"monolithic_response_ms"`
	SpeedupX             float64 `json:"speedup_x"`
	// Wall-clock cost of one streamed query on this machine.
	WallNsPerOp int64 `json:"wall_ns_per_op"`
}

// BenchmarkStreamingLargeResult measures the streamed large-result scan and
// writes BENCH_streaming.json so future changes can regress against the
// pipeline's time-to-first-row, virtual response time, and wall cost.
func BenchmarkStreamingLargeResult(b *testing.B) {
	fed := streamingBenchFederation(b)
	var (
		res *QueryResult
		err error
	)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = fed.Query(streamingBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wallPerOp := time.Since(start).Nanoseconds() / int64(b.N)

	_, saf := storeAndForward(b, streamingBenchFederation(b), streamingBenchQuery)
	if res.ResponseTime >= saf {
		b.Fatalf("pipelined response %v must beat store-and-forward %v", res.ResponseTime, saf)
	}
	b.ReportMetric(float64(res.FirstRowTime), "first_row_vms")
	b.ReportMetric(float64(res.ResponseTime), "response_vms")
	b.ReportMetric(float64(saf), "monolithic_vms")

	out := streamingBenchResult{
		Scenario:             "1xS1 midrange, 20ms/50KBps link, scale 10",
		Query:                streamingBenchQuery,
		Rows:                 len(res.Rows.Rows),
		StreamedFirstRowMS:   float64(res.FirstRowTime),
		StreamedResponseMS:   float64(res.ResponseTime),
		MonolithicResponseMS: float64(saf),
		SpeedupX:             float64(saf) / float64(res.ResponseTime),
		WallNsPerOp:          wallPerOp,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_streaming.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_streaming.json: %s", buf)
}
