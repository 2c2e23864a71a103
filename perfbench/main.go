// Command perfbench is the federation's one benchmark. It runs a named
// workload against the default configuration (row engine, row wire,
// streaming batches of 256, plan cache on, QCC attached with default
// options and its daemons running), checks every answer against ground
// truth, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, from a run through the
// public API with no instrumentation. With --trace 1 they are the per-layer
// ones: an untraced and a traced run of the same seed are made back to
// back, the traced one with timing decorators slotted into the layers'
// interface seams, and the traced run must reproduce the untraced run's
// rows (and, on the single-session workload, its routes and virtual times).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-phases --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times set-up is timed per run; setup_s is the
// median.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: paper-phases, scan-ship or tenant-overload")
	seed := fs.Int64("seed", 1, "workload seed: drives the SQL stream and the phase schedule")
	seconds := fs.Int("seconds", 10, "measured wall seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", s.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env go=%s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(stdout, "workload scale=%d sessions=%d why: %s\n", s.scale, s.sessions, s.why)

	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(s, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = perLayer(s, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// metric is one reported number with its unit and, for the human-readable
// table, the base or sample count it was computed from.
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

// add records a metric; a value that is not finite (an empty base) is
// reported as 0 so the JSON stays valid.
func (r *report) add(name string, value float64, unit, base string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, base})
}

func (r *report) addRatio(name string, q ratio, unit string) {
	r.add(name, q.value(), unit, q.String())
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	width := 0
	for _, m := range r.metrics {
		width = max(width, len(m.name))
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-*s %14.6g %-6s %s\n", width, m.name, m.value, m.unit, m.base)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range r.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(out))
}

// minQueries is the sample count an end-to-end window must reach: enough
// for the reported wall p99 to have minTail samples beyond it, and the whole
// virtual prefix (only single-session workloads define one).
func minQueries(s *spec) int { return max(minSamples(0.99), s.virtualPrefix) }

// endToEnd times set-up setupRepeats times, runs one untraced window on the
// last federation built, and checks every answer.
func endToEnd(s *spec, seed int64, dur time.Duration) (*report, error) {
	var setups []float64
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		b = nil // the previous federation is collected before timing
		runtime.GC()
		t0 := time.Now()
		nb, err := prepare(s, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	if s.wireQueries <= 0 {
		return nil, fmt.Errorf("workload %s sets no wire reading", s.name)
	}
	res, err := b.window(windowOpts{dur: dur, minQueries: minQueries(s), wireAt: s.wireQueries, heapAt: minQueries(s)})
	if err != nil {
		return nil, err
	}
	ok := res.ok()
	bad, firstBad, err := verify(s, seed, res.records)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: len(res.records)}
	rep.failed = len(res.records) - len(ok) + bad
	rep.correct = bad == 0 && len(ok) == len(res.records)
	if firstBad != "" {
		rep.notes = append(rep.notes, "MISMATCH "+firstBad)
	}
	for _, r := range res.records {
		if r.err != "" {
			rep.notes = append(rep.notes, "ERROR "+r.sql+": "+r.err)
			break
		}
	}

	wall := make([]float64, len(ok))
	for i, r := range ok {
		wall[i] = float64(r.wallNS) / 1e6
	}
	var virt, first []float64
	for _, r := range ok {
		if s.virtualPrefix > 0 && r.seq >= s.virtualPrefix {
			continue
		}
		virt = append(virt, r.virt)
		first = append(first, r.firstRow)
	}
	n := float64(len(ok))
	rep.addRatio("qps", ratio{n, res.elapsed.Seconds()}, "1/s")
	if err := rep.addPercentile("wall_ms_p50", wall, 0.50, "ms"); err != nil {
		return nil, err
	}
	if err := rep.addPercentile("wall_ms_p99", wall, 0.99, "ms"); err != nil {
		return nil, err
	}
	if err := rep.addPercentile("virt_ms_p50", virt, 0.50, "vms"); err != nil {
		return nil, err
	}
	if err := rep.addPercentile("virt_ms_p95", virt, 0.95, "vms"); err != nil {
		return nil, err
	}
	if err := rep.addPercentile("virt_first_row_ms_p50", first, 0.50, "vms"); err != nil {
		return nil, err
	}
	rep.add("wire_bytes_per_query", res.wire/float64(res.wireQueries), "B",
		fmt.Sprintf("%s B over the first %d queries, read with none in flight", countString(res.wire), res.wireQueries))
	rep.addRatio("allocs_per_query", ratio{float64(res.after.allocs - res.before.allocs), n}, "count")
	rep.addRatio("alloc_bytes_per_query", ratio{float64(res.after.allocBytes - res.before.allocBytes), n}, "B")
	rep.add("live_heap_mb", float64(res.heapBytes)/(1<<20), "MB", fmt.Sprintf("after a forced GC with no query in flight, once %d queries had completed", minQueries(s)))
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %s", len(setups), floats(setups)))
	return rep, nil
}

func (r *report) addPercentile(name string, values []float64, p float64, unit string) error {
	v, err := percentile(values, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.add(name, v, unit, fmt.Sprintf("n=%d", len(values)))
	return nil
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// perLayer runs the same seed untraced and then traced, each for half the
// measured time, checks answers on both and identity between them, and
// reports the traced run's layer attribution.
func perLayer(s *spec, seed int64, dur time.Duration) (*report, error) {
	half := dur / 2
	ub, err := prepare(s, seed, nil)
	if err != nil {
		return nil, err
	}
	plain, err := ub.window(windowOpts{dur: half, routes: true})
	if err != nil {
		return nil, err
	}
	runtime.GC() // collect the untraced federation before building the traced one
	rec := newRecorder()
	tb, err := prepare(s, seed, rec)
	if err != nil {
		return nil, err
	}
	traced, err := tb.window(windowOpts{dur: half, routes: true})
	if err != nil {
		return nil, err
	}

	rep := &report{attempted: len(plain.records) + len(traced.records)}
	for _, res := range []*runResult{plain, traced} {
		bad, firstBad, err := verify(s, seed, res.records)
		if err != nil {
			return nil, err
		}
		rep.failed += len(res.records) - len(res.ok()) + bad
		if firstBad != "" {
			rep.notes = append(rep.notes, "MISMATCH "+firstBad)
		}
	}
	compared, diff := compareRuns(plain.records, traced.records, s.sessions == 1)
	rep.correct = rep.failed == 0 && diff == ""
	if diff != "" {
		rep.notes = append(rep.notes, "TRACE IDENTITY FAILED after "+fmt.Sprint(compared)+" queries: "+diff)
	} else {
		what := "rows"
		if s.sessions == 1 {
			what = "rows, routes and virtual times"
		}
		rep.notes = append(rep.notes, fmt.Sprintf("trace identity: %s equal over the %d common queries", what, compared))
	}

	ok := traced.ok()
	nq := float64(len(ok))
	a := rec.agg
	q := float64(max(a.queries, 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / q }
	perQ := func(ns int64) string { return fmt.Sprintf("%.4g ms over %d queries", float64(ns)/1e6, a.queries) }
	wallMean := ms(a.wall)
	share := func(name string, ns int64) {
		rep.addRatio(name, ratio{100 * float64(ns), float64(a.wall)}, "%")
	}

	rep.add("trace.wall_ms_mean", wallMean, "ms", perQ(a.wall))
	rep.add("wrapper.explain_ms", ms(a.layer[lExplain]), "ms", perQ(a.layer[lExplain]))
	share("wrapper.explain_share_pct", a.layer[lExplain])
	rep.addRatio("wrapper.explain_calls_per_query", ratio{float64(a.calls[lExplain]), q}, "count")
	rep.add("wrapper.open_ms", ms(a.layer[lOpen]), "ms", perQ(a.layer[lOpen]))
	rep.add("wrapper.next_ms", ms(a.layer[lNext]), "ms", perQ(a.layer[lNext]))
	rep.addRatio("wrapper.batches_per_query", ratio{float64(a.batches), q}, "count")
	rep.addRatio("wrapper.rows_per_query", ratio{float64(a.rows), q}, "count")
	rep.add("wrapper.probe_ms", ms(a.layer[lProbe]), "ms", perQ(a.layer[lProbe]))

	pc := ratio{float64(traced.c1.planHits - traced.c0.planHits), float64(traced.c1.planHits - traced.c0.planHits + traced.c1.planMisses - traced.c0.planMisses)}
	rep.addRatio("integrator.plancache_hit_ratio", pc, "ratio")
	sc := ratio{float64(traced.c1.stmtHits - traced.c0.stmtHits), float64(traced.c1.stmtHits - traced.c0.stmtHits + traced.c1.stmtMisses - traced.c0.stmtMisses)}
	rep.addRatio("remote.stmtcache_hit_ratio", sc, "ratio")
	rep.add("integrator.compile_self_ms", ms(a.compileSelf), "ms", perQ(a.compileSelf))
	rep.add("integrator.dispatch_self_ms", ms(a.dispatchSelf), "ms", perQ(a.dispatchSelf))
	rep.add("integrator.merge_self_ms", ms(a.mergeSelf), "ms", perQ(a.mergeSelf))
	share("integrator.merge_share_pct", a.mergeSelf)
	rep.add("integrator.finish_self_ms", ms(a.finishSelf), "ms", perQ(a.finishSelf))
	var frags, retries float64
	for _, r := range ok {
		frags += float64(r.frags)
		retries += float64(r.retried)
	}
	rep.addRatio("integrator.fragments_per_query", ratio{frags, nq}, "count")
	rep.addRatio("integrator.retries_per_query", ratio{retries, nq}, "count")

	observe := a.layer[lObsCompile] + a.layer[lObsRun] + a.layer[lObsOther] + a.layer[lMergeObs]
	rep.add("qcc.observe_ms", ms(observe), "ms", perQ(observe))
	rep.add("qcc.calibrate_ms", ms(a.layer[lCalibrate]), "ms", perQ(a.layer[lCalibrate]))
	rep.addRatio("qcc.calibrate_calls_per_query", ratio{float64(a.calls[lCalibrate]), q}, "count")
	rep.add("qcc.route_ms", ms(a.layer[lRoute]), "ms", perQ(a.layer[lRoute]))
	for _, e := range []struct {
		name string
		errs []float64
	}{{"qcc.raw_err_p50", rec.rawErr}, {"qcc.cal_err_p50", rec.calErr}} {
		v, err := percentile(e.errs, 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		rep.add(e.name, v, "ratio", fmt.Sprintf("n=%d fragment runs", len(e.errs)))
	}

	rep.addRatio("remote.exec_balance", execBalance(traced.c0, traced.c1), "ratio")

	admitted := float64(traced.c1.admitted - traced.c0.admitted)
	rep.addRatio("admission.queued_ratio", ratio{float64(traced.c1.queued - traced.c0.queued), admitted}, "ratio")
	waits := make([]float64, len(ok))
	for i, r := range ok {
		waits[i] = r.wait
	}
	if err := rep.addPercentile("admission.wait_virt_ms_p95", waits, 0.95, "vms"); err != nil {
		return nil, err
	}
	rep.add("admission.wait_wall_ms", ms(a.admitGap), "ms", perQ(a.admitGap)+", compile end to first dispatch")
	attempted := float64(len(traced.records))
	rep.addRatio("admission.shed_ratio", ratio{float64(traced.c1.shed - traced.c0.shed + traced.c1.rejected - traced.c0.rejected), attempted}, "ratio")
	rep.addRatio("admission.served_cost_ratio", ratio{
		traced.c1.servedCost["gold"] - traced.c0.servedCost["gold"],
		traced.c1.servedCost["bronze"] - traced.c0.servedCost["bronze"],
	}, "ratio")

	if len(traced.updateMS) > 0 {
		var sum float64
		for _, u := range traced.updateMS {
			sum += u
		}
		rep.addRatio("storage.update_ms", ratio{sum, float64(len(traced.updateMS))}, "ms")
	} else {
		rep.add("storage.update_ms", 0, "ms", "no update bursts in this workload")
	}

	gcCPU := traced.after.gcCPU - traced.before.gcCPU
	totalCPU := traced.after.totalCPU - traced.before.totalCPU
	rep.addRatio("go.gc_cpu_fraction", ratio{gcCPU, totalCPU}, "ratio")
	rep.addRatio("go.gc_cycles_per_kquery", ratio{1000 * float64(traced.after.gcCycles-traced.before.gcCycles), nq}, "count")

	qpsPlain := float64(len(plain.ok())) / plain.elapsed.Seconds()
	qpsTraced := nq / traced.elapsed.Seconds()
	rep.add("trace_overhead_pct", 100*(qpsPlain-qpsTraced)/qpsPlain, "%",
		fmt.Sprintf("untraced %.4g qps (%d queries), traced %.4g qps (%d queries)", qpsPlain, len(plain.ok()), qpsTraced, len(ok)))
	rep.addRatio("fail_ratio", ratio{float64(rep.failed), float64(rep.attempted)}, "ratio")
	rep.add("trace.unattributed_ms", float64(a.unattributed)/1e6, "ms", "decorated calls outside any query, whole window")
	return rep, nil
}

// execBalance is max/min of the fragments executed per server over the
// window (a server that executed nothing counts as one).
func execBalance(c0, c1 counters) ratio {
	lo, hi := math.Inf(1), 0.0
	for id, n := range c1.executed {
		d := float64(n - c0.executed[id])
		lo, hi = min(lo, d), max(hi, d)
	}
	return ratio{hi, max(lo, 1)}
}
