package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	fedqcc "repro"
	"repro/internal/experiment"
)

// record is one measured query.
type record struct {
	session  int
	seq      int // position in the session's stream
	sql      string
	epoch    int
	wallNS   int64
	virt     float64 // QueueWait + ResponseTime: the user's simulated latency
	firstRow float64
	wait     float64
	frags    int
	retried  int
	fp       fingerprint
	route    uint64 // hash of the fragment→server routing (identity runs only)
	err      string
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs, allocBytes uint64
	gcCycles           uint64
	gcCPU, totalCPU    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocs:     uint64(val(0)),
		allocBytes: uint64(val(1)),
		gcCycles:   uint64(val(2)),
		gcCPU:      val(3),
		totalCPU:   val(4),
	}
}

// liveHeapBytes forces a collection and reads the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runResult is everything one measured window produced.
type runResult struct {
	records  []record
	elapsed  time.Duration
	updateMS []float64 // wall ms per ApplyUpdateBurst call
	before   runtimeSample
	after    runtimeSample
	c0, c1   counters
	// wire is the run log's OutBytes summed over the window's first
	// wireQueries queries, read with no query in flight (zero if not asked).
	wire        float64
	wireQueries int
	// heapBytes is the live heap read after a forced collection, with no
	// query in flight, once heapAt queries had completed (0 if not asked).
	heapBytes uint64
}

func (r *runResult) ok() []record {
	var out []record
	for _, rec := range r.records {
		if rec.err == "" {
			out = append(out, rec)
		}
	}
	return out
}

// bench holds one prepared federation and the inputs generated for it.
type bench struct {
	spec *spec
	seed int64
	tgt  target
	rec  *recorder // nil for untraced runs
}

// prepare builds the federation (public API, or the traced assembly when rec
// is non-nil), applies the workload's admission settings and runs the
// warm-up queries. This is the set-up that setup_s times.
func prepare(s *spec, seed int64, rec *recorder) (*bench, error) {
	var tgt target
	if rec == nil {
		fed, err := s.public()
		if err != nil {
			return nil, fmt.Errorf("building federation: %w", err)
		}
		tgt = newPublicTarget(fed)
	} else {
		sc, err := s.scenario()
		if err != nil {
			return nil, fmt.Errorf("building federation: %w", err)
		}
		tgt = newTracedTarget(sc, rec)
	}
	if s.configure != nil {
		s.configure(tgt.admission())
	}
	b := &bench{spec: s, seed: seed, tgt: tgt, rec: rec}
	for _, sql := range s.warmup() {
		if _, _, err := b.query(context.Background(), sql); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", sql, err)
		}
	}
	return b, nil
}

func (b *bench) query(ctx context.Context, sql string) (outcome, int64, error) {
	var qt *queryTrace
	t0 := time.Now()
	if b.rec != nil {
		ctx, qt = b.rec.begin(ctx)
	}
	out, err := b.tgt.query(ctx, sql)
	if b.rec != nil {
		b.rec.end(qt)
	}
	return out, int64(time.Since(t0)), err
}

// phaseLevels is an epoch's Table-1 phase: each server's load level, in
// s.servers order, as the phase sets it. loaded reports whether any server
// is loaded, which is when the epoch's writes happen.
func phaseLevels(s *spec, epoch int) (levels []float64, loaded bool) {
	phase := s.phases[epoch%len(s.phases)]
	for _, id := range s.servers {
		level := phase.LoadLevel(id)
		levels = append(levels, level)
		loaded = loaded || level > 0
	}
	return levels, loaded
}

// applyEpoch moves the federation to an epoch's phase and, when any server
// is loaded, hits every table of every server with the epoch's update
// burst, timing each burst. The burst goes to every replica alike, so the
// copies stay identical and every answer has a single ground truth.
func (b *bench) applyEpoch(epoch int, timed *[]float64) error {
	s := b.spec
	levels, loaded := phaseLevels(s, epoch)
	for i, id := range s.servers {
		if err := b.tgt.setLoad(id, levels[i]); err != nil {
			return err
		}
	}
	if !loaded {
		return nil
	}
	for _, id := range s.servers {
		for _, table := range s.burstTables {
			t0 := time.Now()
			if err := b.tgt.burst(id, table, s.burstRows, burstSeed(b.seed, epoch)); err != nil {
				return fmt.Errorf("update burst %s.%s: %w", id, table, err)
			}
			*timed = append(*timed, float64(time.Since(t0))/1e6)
		}
	}
	return nil
}

// hardStop bounds a window that cannot reach its sample minimum, keeping
// the whole run inside two minutes plus set-up and checking.
const hardStop = 120 * time.Second

// runLogCap is the number of entries the meta-wrapper's run log keeps; a
// reading of the log is only whole while the window has added fewer.
const runLogCap = 4096

// windowOpts says how long a window runs and which quiescent readings it
// takes. A reading parks every session between queries, so nothing is in
// flight, and its pause is excluded from the window's elapsed time.
type windowOpts struct {
	dur time.Duration
	// minQueries is the query count the window must reach besides dur.
	minQueries int
	// wireAt, when positive, reads the run log once wireAt queries have
	// completed: a fixed query count whose fragment runs all fit in the
	// log, so the bytes are those of every query up to the reading.
	wireAt int
	// heapAt, when positive, reads the live heap once heapAt queries have
	// completed: at a fixed count, because the federation's retained state
	// grows with the queries it has served, and quiescent, because
	// in-flight results are not retained state.
	heapAt int
	// routes records each query's routing hash for identity checks.
	routes bool
}

// window runs every session closed-loop until the run has lasted o.dur,
// completed at least o.minQueries queries and taken its readings, or until
// hardStop passes.
func (b *bench) window(o windowOpts) (*runResult, error) {
	s := b.spec
	streams := s.streams(b.seed)
	res := &runResult{c0: b.tgt.counters()}
	logStart := len(b.tgt.runLog())
	if b.rec != nil {
		b.rec.measure(true)
	}
	var (
		done    atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	readWire := func() {
		log := b.tgt.runLog()
		if len(log) >= runLogCap {
			fail(fmt.Errorf("run log filled before the wire reading at %d queries", o.wireAt))
			return
		}
		for _, e := range log[logStart:] {
			res.wire += float64(e.OutBytes)
		}
		res.wireQueries = int(done.Load())
	}
	readHeap := func() { res.heapBytes = liveHeapBytes() }
	readings := 0
	if o.wireAt > 0 {
		readings++
	}
	if o.heapAt > 0 {
		readings++
	}
	q := newQuiescer(s.sessions, readings)
	perSession := make([][]record, s.sessions)
	var updates []float64
	runtime.GC()
	res.before = sampleRuntime()
	start := time.Now()
	for i := 0; i < s.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer q.leave()
			ctx := context.Background()
			if s.tenants != nil {
				ctx = fedqcc.WithQueryTenant(ctx, s.tenants[i])
			}
			var recs []record
			for seq := 0; !stop.Load(); seq++ {
				it := streams[i].next()
				if it.startsEpoch && s.phases != nil {
					// Only single-session workloads have phases, so the
					// schedule is applied by the one session in order.
					if err := b.applyEpoch(it.epoch, &updates); err != nil {
						fail(err)
						break
					}
				}
				out, wall, err := b.query(ctx, it.sql)
				r := record{session: i, seq: seq, sql: it.sql, epoch: it.epoch, wallNS: wall}
				if err != nil {
					r.err = err.Error()
				} else {
					r.virt = out.wait + out.resp
					r.firstRow = out.firstRow
					r.wait = out.wait
					r.frags = len(out.route)
					r.retried = out.retried
					r.fp = fingerprintOf(out.rows)
					if o.routes {
						r.route = routeHash(out.route)
					}
				}
				recs = append(recs, r)
				n := int(done.Add(1))
				switch n {
				case o.wireAt:
					q.request(readWire)
				case o.heapAt:
					q.request(readHeap)
				}
				q.park()
				el := time.Since(start)
				if el >= hardStop || (el >= o.dur && n >= o.minQueries && q.finished()) {
					stop.Store(true)
				}
			}
			perSession[i] = recs
		}(i)
	}
	wg.Wait()
	res.elapsed = time.Since(start) - q.paused
	res.after = sampleRuntime()
	if b.rec != nil {
		b.rec.measure(false)
	}
	if firstEr != nil {
		return nil, firstEr
	}
	if !q.finished() {
		return nil, fmt.Errorf("window stopped after %d queries, before its readings at %d and %d", done.Load(), o.wireAt, o.heapAt)
	}
	res.c1 = b.tgt.counters()
	res.updateMS = updates
	for _, recs := range perSession {
		res.records = append(res.records, recs...)
	}
	return res, nil
}

// quiescer parks every session between queries while a requested reading
// waits, so the reading sees no query in flight.
type quiescer struct {
	mu      sync.Mutex
	cond    sync.Cond
	running int // sessions still in their loop
	parked  int
	pending func() // the requested reading, nil when none waits
	left    int    // readings not yet taken
	paused  time.Duration
}

// newQuiescer serves sessions sessions and expects readings readings.
func newQuiescer(sessions, readings int) *quiescer {
	q := &quiescer{running: sessions, left: readings}
	q.cond.L = &q.mu
	return q
}

// request asks for read to run once every running session is parked.
func (q *quiescer) request(read func()) {
	q.mu.Lock()
	q.pending = read
	q.mu.Unlock()
}

// park blocks the calling session while a requested reading waits for the
// others; the last session to arrive takes the reading.
func (q *quiescer) park() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pending == nil {
		return
	}
	q.parked++
	q.settle()
	for q.pending != nil {
		q.cond.Wait()
	}
}

// leave retires a session that stopped, so a pending reading does not wait
// for it.
func (q *quiescer) leave() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.running--
	if q.pending != nil {
		q.settle()
	}
}

func (q *quiescer) settle() {
	if q.parked < q.running {
		return
	}
	t0 := time.Now()
	q.pending()
	q.paused += time.Since(t0)
	q.pending, q.parked = nil, 0
	q.left--
	q.cond.Broadcast()
}

// finished reports whether every expected reading has been taken.
func (q *quiescer) finished() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.left <= 0
}

func routeHash(route map[string]string) uint64 {
	keys := make([]string, 0, len(route))
	for k := range route {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s;", k, route[k])
	}
	return h.Sum64()
}

// verify compares every successful query's answer with ground truth: the
// same SQL run directly, with the unoptimized reference plan, on one server
// holding the full tables (for paper-phases, after replaying the write
// bursts of the query's epoch). It returns the number of mismatches and the
// first one's description.
func verify(s *spec, seed int64, records []record) (int, string, error) {
	sc, err := s.oracle()
	if err != nil {
		return 0, "", fmt.Errorf("building ground-truth server: %w", err)
	}
	const srv = "S1"
	oracle := sc.Servers[srv]
	recs := append([]record(nil), records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].epoch < recs[j].epoch })
	epoch := -1
	truth := map[string]fingerprint{}
	bad := 0
	first := ""
	for _, r := range recs {
		if r.err != "" {
			continue
		}
		for s.phases != nil && epoch < r.epoch {
			epoch++
			if _, loaded := phaseLevels(s, epoch); loaded {
				for _, table := range s.burstTables {
					if err := oracle.ApplyUpdateBurst(table, s.burstRows, burstSeed(seed, epoch)); err != nil {
						return 0, "", fmt.Errorf("ground-truth update burst %s: %w", table, err)
					}
				}
			}
			truth = map[string]fingerprint{}
		}
		want, ok := truth[r.sql]
		if !ok {
			rel, err := experiment.GroundTruth(sc, srv, r.sql)
			if err != nil {
				return 0, "", fmt.Errorf("ground truth for %q: %w", r.sql, err)
			}
			want = fingerprintOf(rel)
			truth[r.sql] = want
		}
		if d := want.diff(r.fp); d != "" {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s (epoch %d): %s", r.sql, r.epoch, d)
			}
		}
	}
	return bad, first, nil
}

// compareRuns checks that a traced run reproduced an untraced one over
// their common prefix, session by session: the same statements and the
// same rows, and — when the workload replays exactly (one session) — the
// same routes and virtual times. It returns the number of queries compared
// and the first difference.
func compareRuns(a, b []record, exact bool) (int, string) {
	bySession := func(rs []record) map[int][]record {
		m := map[int][]record{}
		for _, r := range rs {
			m[r.session] = append(m[r.session], r)
		}
		return m
	}
	as, bs := bySession(a), bySession(b)
	n := 0
	for sess, ra := range as {
		rb := bs[sess]
		for i := 0; i < len(ra) && i < len(rb); i++ {
			x, y := ra[i], rb[i]
			n++
			switch {
			case x.sql != y.sql:
				return n, fmt.Sprintf("session %d query %d: statements differ", sess, i)
			case (x.err == "") != (y.err == ""):
				return n, fmt.Sprintf("session %d query %d: error %q vs %q", sess, i, x.err, y.err)
			case x.fp.diff(y.fp) != "":
				return n, fmt.Sprintf("session %d query %d (%s): rows differ: %s", sess, i, x.sql, x.fp.diff(y.fp))
			case exact && x.fp != y.fp:
				return n, fmt.Sprintf("session %d query %d (%s): rows differ in the last bits", sess, i, x.sql)
			case exact && x.route != y.route:
				return n, fmt.Sprintf("session %d query %d (%s): routes differ", sess, i, x.sql)
			case exact && (x.virt != y.virt || x.firstRow != y.firstRow || x.wait != y.wait):
				return n, fmt.Sprintf("session %d query %d (%s): virtual times %v/%v vs %v/%v", sess, i, x.sql, x.virt, x.firstRow, y.virt, y.firstRow)
			}
		}
	}
	return n, ""
}
