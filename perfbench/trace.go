package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/wrapper"
)

// layer names one decorated seam. Spans are recorded per layer and per
// query, from outside the program, around calls through interfaces the
// federation already exposes.
type layer int

const (
	lExplain    layer = iota // wrapper.Wrapper.Explain: remote planning and estimation
	lOpen                    // wrapper.Wrapper.Open: remote execution of the first batch
	lNext                    // wrapper.ResultStream.Next: batch production and shipping
	lProbe                   // wrapper.Wrapper.Probe: availability daemon probes
	lObsCompile              // metawrapper.Observer.ObserveCompile
	lObsRun                  // metawrapper.Observer.ObserveRun
	lObsOther                // metawrapper.Observer.ObserveError / ObserveProbe
	lCalibrate               // metawrapper.Calibrator.CalibrateFragment
	lRoute                   // integrator.RoutePolicy.ChooseGlobal
	lMergeObs                // integrator.IIMergeObserver.ObserveIIMerge
	nLayers
)

// queryTrace collects one query's spans. Fragment goroutines append
// concurrently, hence the mutex.
type queryTrace struct {
	mu      sync.Mutex
	start   int64
	spans   [nLayers][]interval
	calls   [nLayers]int
	batches int
	rows    int
	gids    []uint64
}

// traceAgg accumulates per-query attributions over the measured window. All
// times are nanoseconds summed over queries.
type traceAgg struct {
	queries int
	wall    int64
	layer   [nLayers]int64
	calls   [nLayers]int64
	batches int64
	rows    int64
	// Integrator self time, split at the first RoutePolicy return (end of
	// compile), the first Open (first dispatch), the last fragment-side call
	// (end of fragment execution) and the merge observation.
	compileSelf  int64
	admitGap     int64
	dispatchSelf int64
	mergeSelf    int64
	finishSelf   int64
	// unattributed is wall time in decorated calls made outside any query.
	unattributed int64
}

type calKey struct {
	server, sig string
	raw         float64
}

// recorder is the traced run's span store.
type recorder struct {
	base time.Time

	mu  sync.Mutex
	byG map[uint64]*queryTrace
	// cal remembers the calibrated estimate handed out for each raw
	// estimate, so a run observation can be scored against both.
	cal    map[calKey]float64
	on     bool
	agg    traceAgg
	rawErr []float64
	calErr []float64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), byG: map[uint64]*queryTrace{}, cal: map[calKey]float64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// measure switches window accumulation on or off (warm-up is not measured).
func (r *recorder) measure(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

type traceKey struct{}

func traceFrom(ctx context.Context) *queryTrace {
	qt, _ := ctx.Value(traceKey{}).(*queryTrace)
	return qt
}

// goid returns the calling goroutine's id, parsed from the stack header
// ("goroutine 123 [running]:"). Calls that carry no context — compile-time
// explains, calibration, observer callbacks — are attributed to a query
// through the goroutine running them.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a query trace bound to the calling (session) goroutine and
// returns the context to submit the query under.
func (r *recorder) begin(ctx context.Context) (context.Context, *queryTrace) {
	qt := &queryTrace{start: r.now()}
	r.bind(qt)
	return context.WithValue(ctx, traceKey{}, qt), qt
}

func (r *recorder) bind(qt *queryTrace) {
	if qt == nil {
		return
	}
	g := goid()
	r.mu.Lock()
	r.byG[g] = qt
	r.mu.Unlock()
	qt.mu.Lock()
	qt.gids = append(qt.gids, g)
	qt.mu.Unlock()
}

func (r *recorder) lookup() *queryTrace {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byG[g]
}

// done records a span [start, now) of layer l for qt (or, when qt is nil,
// for the query bound to the calling goroutine).
func (r *recorder) done(qt *queryTrace, l layer, start int64) {
	end := r.now()
	if qt == nil {
		qt = r.lookup()
	}
	if qt == nil {
		r.mu.Lock()
		if r.on {
			r.agg.unattributed += end - start
		}
		r.mu.Unlock()
		return
	}
	qt.mu.Lock()
	qt.spans[l] = append(qt.spans[l], interval{start, end})
	qt.calls[l]++
	qt.mu.Unlock()
}

// end closes a query trace: every goroutine it bound is released and, inside
// the measured window, its wall time is attributed to layers.
func (r *recorder) end(qt *queryTrace) {
	end := r.now()
	r.mu.Lock()
	for _, g := range qt.gids {
		if r.byG[g] == qt {
			delete(r.byG, g)
		}
	}
	on := r.on
	r.mu.Unlock()
	if !on {
		return
	}
	a := attribute(qt, end)
	r.mu.Lock()
	r.agg.add(a)
	r.mu.Unlock()
}

// attribute splits one query's wall interval [qt.start, end) into layer
// unions and integrator self time. Nothing outside qt is touched, so it is
// safe once every fragment goroutine has returned.
func attribute(qt *queryTrace, end int64) traceAgg {
	var a traceAgg
	a.queries = 1
	a.wall = end - qt.start
	a.batches = int64(qt.batches)
	a.rows = int64(qt.rows)
	var all []interval
	for l := layer(0); l < nLayers; l++ {
		a.calls[l] = int64(qt.calls[l])
		a.layer[l] = unionLength(append([]interval(nil), qt.spans[l]...))
		all = append(all, qt.spans[l]...)
	}
	qs, qe := qt.start, end
	compileEnd := qe
	if s := qt.spans[lRoute]; len(s) > 0 {
		compileEnd = minEnd(s)
	}
	firstOpen := compileEnd
	if s := qt.spans[lOpen]; len(s) > 0 {
		firstOpen = minStart(s)
	}
	execEnd := firstOpen
	for _, l := range []layer{lOpen, lNext, lObsRun} {
		for _, x := range qt.spans[l] {
			execEnd = max(execEnd, x.hi)
		}
	}
	mergeStart, mergeEnd := execEnd, execEnd
	if s := qt.spans[lMergeObs]; len(s) > 0 {
		last := s[len(s)-1]
		mergeStart, mergeEnd = last.lo, last.hi
	}
	b := []int64{qs, compileEnd, firstOpen, execEnd, mergeStart, mergeEnd, qe}
	for i := 1; i < len(b); i++ {
		b[i] = min(max(b[i], b[i-1]), qe)
	}
	a.compileSelf = selfTime(b[0], b[1], all)
	a.admitGap = selfTime(b[1], b[2], all)
	a.dispatchSelf = selfTime(b[2], b[3], all)
	a.mergeSelf = selfTime(b[3], b[4], all)
	a.finishSelf = selfTime(b[4], b[5], all) + selfTime(b[5], b[6], all)
	return a
}

func minEnd(s []interval) int64 {
	v := s[0].hi
	for _, x := range s[1:] {
		v = min(v, x.hi)
	}
	return v
}

func minStart(s []interval) int64 {
	v := s[0].lo
	for _, x := range s[1:] {
		v = min(v, x.lo)
	}
	return v
}

func (a *traceAgg) add(b traceAgg) {
	a.queries += b.queries
	a.wall += b.wall
	for l := range a.layer {
		a.layer[l] += b.layer[l]
		a.calls[l] += b.calls[l]
	}
	a.batches += b.batches
	a.rows += b.rows
	a.compileSelf += b.compileSelf
	a.admitGap += b.admitGap
	a.dispatchSelf += b.dispatchSelf
	a.mergeSelf += b.mergeSelf
	a.finishSelf += b.finishSelf
}

// --- wrapper.Wrapper decorator ---

type timedWrapper struct {
	wrapper.Wrapper
	rec *recorder
}

// residencyReporter is the optional wrapper capability the meta-wrapper
// probes for the cache-locality routing signal; the decorator must keep it
// visible or routing inputs would change under tracing.
type residencyReporter interface {
	CacheResidency(table string) float64
}

type timedResidentWrapper struct {
	*timedWrapper
	rr residencyReporter
}

func (w timedResidentWrapper) CacheResidency(table string) float64 { return w.rr.CacheResidency(table) }

// decorateWrapper times a wrapper's Explain, Open, stream Next and Probe,
// forwarding every other method and optional capability unchanged.
func decorateWrapper(w wrapper.Wrapper, rec *recorder) wrapper.Wrapper {
	tw := &timedWrapper{Wrapper: w, rec: rec}
	if rr, ok := w.(residencyReporter); ok {
		return timedResidentWrapper{timedWrapper: tw, rr: rr}
	}
	return tw
}

func (w *timedWrapper) Explain(stmt *sqlparser.SelectStmt) ([]wrapper.Candidate, error) {
	t := w.rec.now()
	c, err := w.Wrapper.Explain(stmt)
	w.rec.done(nil, lExplain, t)
	return c, err
}

func (w *timedWrapper) Open(ctx context.Context, plan *remote.Plan, batchRows int) (wrapper.ResultStream, error) {
	qt := traceFrom(ctx)
	// The fragment goroutine's later context-free calls (ObserveRun) find
	// their query through this binding.
	w.rec.bind(qt)
	t := w.rec.now()
	st, err := w.Wrapper.Open(ctx, plan, batchRows)
	w.rec.done(qt, lOpen, t)
	if err != nil {
		return nil, err
	}
	return &timedStream{ResultStream: st, rec: w.rec, qt: qt}, nil
}

func (w *timedWrapper) Probe(ctx context.Context) (simclock.Time, error) {
	t := w.rec.now()
	rtt, err := w.Wrapper.Probe(ctx)
	w.rec.done(nil, lProbe, t)
	return rtt, err
}

type timedStream struct {
	wrapper.ResultStream
	rec *recorder
	qt  *queryTrace
}

func (s *timedStream) Next(ctx context.Context) (*wrapper.StreamBatch, error) {
	t := s.rec.now()
	b, err := s.ResultStream.Next(ctx)
	s.rec.done(s.qt, lNext, t)
	if b != nil && s.qt != nil {
		n := 0
		if b.Rel != nil {
			n = len(b.Rel.Rows)
		} else if b.Col != nil {
			n = b.Col.Len()
		}
		s.qt.mu.Lock()
		s.qt.batches++
		s.qt.rows += n
		s.qt.mu.Unlock()
	}
	return b, err
}

// --- QCC decorators: metawrapper.Observer, metawrapper.Calibrator and
// integrator.IIMergeObserver ---

type timedQCC struct {
	q   *qcc.QCC
	rec *recorder
}

func (d timedQCC) ObserveCompile(rec metawrapper.CompileRecord) {
	t := d.rec.now()
	d.q.ObserveCompile(rec)
	d.rec.done(nil, lObsCompile, t)
}

func (d timedQCC) ObserveRun(rec metawrapper.RunRecord) {
	t := d.rec.now()
	d.q.ObserveRun(rec)
	d.rec.done(nil, lObsRun, t)
	d.rec.scoreRun(rec)
}

func (d timedQCC) ObserveError(serverID string, err error) {
	t := d.rec.now()
	d.q.ObserveError(serverID, err)
	d.rec.done(nil, lObsOther, t)
}

func (d timedQCC) ObserveProbe(serverID string, rtt simclock.Time, err error) {
	t := d.rec.now()
	d.q.ObserveProbe(serverID, rtt, err)
	d.rec.done(nil, lObsOther, t)
}

func (d timedQCC) CalibrateFragment(key metawrapper.FragmentKey, est remote.CostEstimate, costKnown bool) remote.CostEstimate {
	t := d.rec.now()
	out := d.q.CalibrateFragment(key, est, costKnown)
	d.rec.done(nil, lCalibrate, t)
	d.rec.mu.Lock()
	d.rec.cal[calKey{key.ServerID, key.Signature, est.TotalMS}] = out.TotalMS
	d.rec.mu.Unlock()
	return out
}

func (d timedQCC) ObserveIIMerge(estMS float64, observed simclock.Time) {
	t := d.rec.now()
	d.q.ObserveIIMerge(estMS, observed)
	d.rec.done(nil, lMergeObs, t)
}

// scoreRun records the relative estimation error of one fragment run, raw
// and calibrated: |est−obs|/obs, the paper's central quantity.
func (r *recorder) scoreRun(rec metawrapper.RunRecord) {
	obs := float64(rec.Observed)
	if obs <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	cal, ok := r.cal[calKey{rec.Key.ServerID, rec.Key.Signature, rec.Est.TotalMS}]
	if !ok || math.IsInf(cal, 0) {
		return
	}
	r.rawErr = append(r.rawErr, math.Abs(rec.Est.TotalMS-obs)/obs)
	r.calErr = append(r.calErr, math.Abs(cal-obs)/obs)
}

// --- integrator.RoutePolicy decorator ---

type timedRoute struct {
	inner integrator.RoutePolicy
	rec   *recorder
}

func (d timedRoute) ChooseGlobal(queryText string, winner *optimizer.GlobalPlan) *optimizer.GlobalPlan {
	t := d.rec.now()
	gp := d.inner.ChooseGlobal(queryText, winner)
	d.rec.done(nil, lRoute, t)
	return gp
}

type timedAnnotatedRoute struct {
	timedRoute
	integrator.RouteAnnotator
}

// decorateRoute times a routing policy, keeping its optional RouteAnnotator
// capability visible to the integrator.
func decorateRoute(p integrator.RoutePolicy, rec *recorder) integrator.RoutePolicy {
	tr := timedRoute{inner: p, rec: rec}
	if ann, ok := p.(integrator.RouteAnnotator); ok {
		return timedAnnotatedRoute{timedRoute: tr, RouteAnnotator: ann}
	}
	return tr
}
