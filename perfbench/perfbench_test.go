package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/integrator"
	"repro/internal/optimizer"
	"repro/internal/sqltypes"
	"repro/internal/wrapper"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return out
}

func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, // exactly 10 samples beyond rank 990
		{999, 0.99, false}, // only 9 beyond
		{200, 0.95, true},
		{199, 0.95, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%g): err=%v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		// For 1..n the estimate sits at rank p·(n+1).
		if want := c.p * float64(c.n+1); c.ok && math.Abs(got-want) > 0.5 {
			t.Errorf("percentile(n=%d, p=%g) = %g, want ≈%g", c.n, c.p, got, want)
		}
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		n := minSamples(p)
		if _, err := percentile(seq(n), p); err != nil {
			t.Errorf("minSamples(%g)=%d but percentile refuses: %v", p, n, err)
		}
		if _, err := percentile(seq(n-1), p); err == nil {
			t.Errorf("minSamples(%g)=%d is not minimal", p, n)
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

func TestPercentileSmoothOverClusters(t *testing.T) {
	constant := make([]float64, 300)
	for i := range constant {
		constant[i] = 104.5
	}
	if got, _ := percentile(constant, 0.95); math.Abs(got-104.5) > 1e-9 {
		t.Errorf("p95 of a constant = %g", got)
	}
	// Two equal clusters with the median on the gap: moving one sample
	// across the gap must nudge the median, not flip it to the other side.
	clusters := func(low int) []float64 {
		v := make([]float64, 512)
		for i := range v {
			v[i] = 20
			if i < low {
				v[i] = 10
			}
		}
		return v
	}
	a, _ := percentile(clusters(256), 0.5)
	b, _ := percentile(clusters(257), 0.5)
	if math.Abs(a-15) > 0.5 || math.Abs(a-b) > 1 {
		t.Errorf("median on a gap: %g, then %g after one sample moved", a, b)
	}
}

func TestPercentilePrintsSampleCount(t *testing.T) {
	var rep report
	if err := rep.addPercentile("wall_ms_p99", seq(1234), 0.99, "ms"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	if !strings.Contains(buf.String(), "n=1234") {
		t.Errorf("percentile line lacks its sample count:\n%s", buf.String())
	}
	if err := rep.addPercentile("wall_ms_p99", seq(500), 0.99, "ms"); err == nil {
		t.Error("p99 of 500 samples was reported")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	children := []interval{
		{10, 40}, {20, 50}, // overlap: covers [10,50)
		{20, 50},  // a parallel call of the same length counts once
		{45, 60},  // extends the union to [10,60)
		{90, 120}, // clipped to [90,100)
		{-5, 0},   // entirely outside
	}
	if got := selfTime(0, 100, children); got != 40 {
		t.Errorf("selfTime = %d, want 40 (100 minus the 60 covered)", got)
	}
	if got := unionLength([]interval{{0, 10}, {0, 10}, {5, 15}}); got != 15 {
		t.Errorf("unionLength = %d, want 15", got)
	}
	if got := selfTime(50, 50, children); got != 0 {
		t.Errorf("empty window selfTime = %d, want 0", got)
	}
}

func TestAttributeCountsParallelFragmentsOnce(t *testing.T) {
	qt := &queryTrace{start: 0}
	qt.spans[lExplain] = []interval{{5, 15}, {15, 25}}
	qt.spans[lCalibrate] = []interval{{26, 28}}
	qt.spans[lRoute] = []interval{{30, 32}}
	// Two fragments opened in parallel, then streamed.
	qt.spans[lOpen] = []interval{{40, 60}, {41, 70}}
	qt.spans[lNext] = []interval{{70, 75}, {75, 76}}
	qt.spans[lObsRun] = []interval{{76, 78}}
	qt.spans[lMergeObs] = []interval{{90, 91}}
	a := attribute(qt, 100)
	checks := []struct {
		name      string
		got, want int64
	}{
		{"wall", a.wall, 100},
		{"open union", a.layer[lOpen], 30},   // [40,70), not 20+29
		{"next union", a.layer[lNext], 6},    // [70,76)
		{"compile self", a.compileSelf, 8},   // [0,32) minus 20+2+2
		{"admit gap", a.admitGap, 8},         // [32,40)
		{"dispatch self", a.dispatchSelf, 0}, // [40,78) fully covered
		{"merge self", a.mergeSelf, 12},      // [78,90)
		{"finish self", a.finishSelf, 9},     // [91,100)
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	var covered int64
	for l := range a.layer {
		covered += a.layer[l]
	}
	if sum := covered + a.compileSelf + a.admitGap + a.dispatchSelf + a.mergeSelf + a.finishSelf; sum != a.wall {
		// Layers here do not overlap each other, so the parts tile the wall.
		t.Errorf("attribution sums to %d, want the wall %d", sum, a.wall)
	}
}

func TestRatioPrintedWithBase(t *testing.T) {
	r := ratio{num: 42, den: 100}
	if got := r.String(); got != "0.42 (42/100)" {
		t.Errorf("ratio string = %q", got)
	}
	if got := (ratio{}).value(); got != 0 {
		t.Errorf("empty ratio value = %g, want 0", got)
	}
	var rep report
	rep.addRatio("integrator.plancache_hit_ratio", ratio{num: 3, den: 7}, "ratio")
	var buf bytes.Buffer
	rep.print(&buf)
	if !strings.Contains(buf.String(), "(3/7)") {
		t.Errorf("ratio printed without its base:\n%s", buf.String())
	}
}

func rel(rows ...sqltypes.Row) *sqltypes.Relation {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "s", Type: sqltypes.KindString},
		sqltypes.Column{Name: "f", Type: sqltypes.KindFloat},
	)
	return &sqltypes.Relation{Schema: schema, Rows: rows}
}

func row(k int64, s string, f float64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString(s), sqltypes.NewFloat(f)}
}

func TestFingerprint(t *testing.T) {
	base := fingerprintOf(rel(row(1, "a", 0.1), row(2, "b", 0.2), row(3, "c", 0.3)))
	same := []*sqltypes.Relation{
		rel(row(3, "c", 0.3), row(1, "a", 0.1), row(2, "b", 0.2)),             // reordered
		rel(row(1, "a", 0.1+1e-15), row(2, "b", 0.2), row(3, "c", 0.3-1e-15)), // summation-order noise
	}
	for i, r := range same {
		if d := base.diff(fingerprintOf(r)); d != "" {
			t.Errorf("equivalent relation %d reported different: %s", i, d)
		}
	}
	differ := []*sqltypes.Relation{
		rel(row(1, "a", 0.1), row(2, "b", 0.2)),                                     // missing row
		rel(row(1, "a", 0.1), row(2, "b", 0.2), row(4, "c", 0.3)),                   // changed int
		rel(row(1, "a", 0.1), row(2, "b", 0.2), row(3, "d", 0.3)),                   // changed string
		rel(row(1, "a", 0.1), row(2, "b", 0.2), row(3, "c", 0.31)),                  // changed float
		rel(row(1, "a", 0.2), row(2, "b", 0.1), row(3, "c", 0.3)),                   // floats swapped between rows
		rel(row(1, "a", 0.1), row(2, "b", 0.2), row(3, "c", 0.3), row(3, "c", 0.3)), // duplicate
	}
	for i, r := range differ {
		if d := base.diff(fingerprintOf(r)); d == "" {
			t.Errorf("different relation %d reported equal", i)
		}
	}
}

// fakeWrapper is a wrapper that reports cache residency.
type fakeWrapper struct{ wrapper.Wrapper }

func (fakeWrapper) CacheResidency(string) float64 { return 0.75 }

// bareWrapper lacks the optional capability.
type bareWrapper struct{ wrapper.Wrapper }

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	rr, ok := decorateWrapper(fakeWrapper{}, rec).(residencyReporter)
	if !ok {
		t.Fatal("decorated wrapper hides CacheResidency")
	}
	if got := rr.CacheResidency("t"); got != 0.75 {
		t.Errorf("CacheResidency = %g, want 0.75", got)
	}
	if _, ok := decorateWrapper(bareWrapper{}, rec).(residencyReporter); ok {
		t.Error("decorated wrapper invents CacheResidency")
	}
	if _, ok := decorateRoute(annotatedRoute{}, rec).(integrator.RouteAnnotator); !ok {
		t.Error("decorated route policy hides RouteAttrs")
	}
	if _, ok := decorateRoute(plainRoute{}, rec).(integrator.RouteAnnotator); ok {
		t.Error("decorated route policy invents RouteAttrs")
	}
}

type plainRoute struct{}

func (plainRoute) ChooseGlobal(_ string, gp *optimizer.GlobalPlan) *optimizer.GlobalPlan { return gp }

type annotatedRoute struct{ plainRoute }

func (annotatedRoute) RouteAttrs(string) map[string]string { return nil }

func TestRecorderAttributesByGoroutineAndContext(t *testing.T) {
	rec := newRecorder()
	rec.measure(true)
	ctx, qt := rec.begin(context.Background())
	// A context-free call on the session goroutine.
	rec.done(nil, lExplain, rec.now())
	// A fragment goroutine: bound through the context, then context-free.
	done := make(chan struct{})
	go func() {
		defer close(done)
		frag := traceFrom(ctx)
		rec.bind(frag)
		rec.done(frag, lOpen, rec.now())
		rec.done(nil, lObsRun, rec.now())
	}()
	<-done
	rec.end(qt)
	// After the query, an unbound call is unattributed.
	rec.done(nil, lProbe, rec.now())
	a := rec.agg
	if a.queries != 1 || a.calls[lExplain] != 1 || a.calls[lOpen] != 1 || a.calls[lObsRun] != 1 || a.calls[lProbe] != 0 {
		t.Errorf("attribution: queries=%d calls=%v", a.queries, a.calls)
	}
	if len(rec.byG) != 0 {
		t.Errorf("%d goroutine bindings leaked", len(rec.byG))
	}
}

// TestTracedRunReproducesUntraced runs a short paper-phases window through
// the public API and through the decorated assembly and requires identical
// rows, routes and virtual times, and answers equal to ground truth.
func TestTracedRunReproducesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two federations")
	}
	s, err := specByName("paper-phases")
	if err != nil {
		t.Fatal(err)
	}
	const seed, n = 7, 80 // spans three epochs, so phase changes and bursts run
	plainBench, err := prepare(s, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainBench.window(windowOpts{minQueries: n, routes: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tracedBench, err := prepare(s, seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedBench.window(windowOpts{minQueries: n, routes: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, diff := compareRuns(plain.records, traced.records, true); diff != "" || got < n {
		t.Fatalf("traced run differs after %d queries: %s", got, diff)
	}
	for _, res := range []*runResult{plain, traced} {
		bad, first, err := verify(s, seed, res.records)
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Errorf("%d answers differ from ground truth; first: %s", bad, first)
		}
	}
	if rec.agg.queries != len(traced.records) || rec.agg.calls[lExplain] == 0 || rec.agg.calls[lRoute] == 0 {
		t.Errorf("traced window attributed %d queries (%d explains, %d routes), ran %d",
			rec.agg.queries, rec.agg.calls[lExplain], rec.agg.calls[lRoute], len(traced.records))
	}
}

// TestTracedConcurrentSessions drives the decorators from two sessions at
// once (run it under -race) and requires the traced rows to match an
// untraced run's and ground truth.
func TestTracedConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two federations")
	}
	s, err := specByName("scan-ship")
	if err != nil {
		t.Fatal(err)
	}
	const seed, n = 3, 40
	plainBench, err := prepare(s, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainBench.window(windowOpts{minQueries: n, routes: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tracedBench, err := prepare(s, seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedBench.window(windowOpts{minQueries: n, routes: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, diff := compareRuns(plain.records, traced.records, false); diff != "" || got == 0 {
		t.Fatalf("traced rows differ after %d queries: %s", got, diff)
	}
	if bad, first, err := verify(s, seed, traced.records); err != nil || bad != 0 {
		t.Fatalf("ground truth: %d mismatches (%s), err %v", bad, first, err)
	}
	a := rec.agg
	if a.queries != len(traced.records) || a.calls[lOpen] == 0 || a.batches == 0 || a.mergeSelf <= 0 {
		t.Errorf("attribution: %d queries of %d, %d opens, %d batches, merge self %d ns",
			a.queries, len(traced.records), a.calls[lOpen], a.batches, a.mergeSelf)
	}
	if len(rec.byG) != 0 {
		t.Errorf("%d goroutine bindings leaked", len(rec.byG))
	}
}

func TestQuiescerReadsWithEverySessionParked(t *testing.T) {
	q := newQuiescer(2, 2)
	var reads atomic.Int32
	read := func() { reads.Add(1) }
	q.request(read)
	parked := make(chan struct{})
	go func() {
		q.park() // blocks until the second session parks
		close(parked)
	}()
	if reads.Load() != 0 {
		t.Fatal("reading taken before every session parked")
	}
	q.park()
	<-parked
	if reads.Load() != 1 || q.finished() {
		t.Fatalf("after the first reading: %d reads, finished=%v", reads.Load(), q.finished())
	}
	q.park() // nothing pending: returns at once

	// A session that stops releases the others from a pending reading.
	q.request(read)
	released := make(chan struct{})
	go func() {
		q.park()
		close(released)
	}()
	q.leave()
	<-released
	if reads.Load() != 2 || !q.finished() {
		t.Fatalf("after a session left: %d reads, finished=%v", reads.Load(), q.finished())
	}
}

// TestWireReadingCoversFixedPrefix checks that wire_bytes_per_query's
// reading covers exactly the window's first wireAt queries on scan-ship,
// whose fragment runs the run log holds in full at that point.
func TestWireReadingCoversFixedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a federation")
	}
	s, err := specByName("scan-ship")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(s, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const at = 60
	res, err := b.window(windowOpts{minQueries: 2 * at, wireAt: at})
	if err != nil {
		t.Fatal(err)
	}
	// Two sessions: the other one may finish its query in flight first.
	if res.wireQueries < at || res.wireQueries > at+1 || res.wire <= 0 {
		t.Fatalf("wire reading: %g B over %d queries, want %d or %d queries", res.wire, res.wireQueries, at, at+1)
	}
}
