// Package integrator implements the Information Integrator (II): the
// federated query processor at the center of the paper's architecture. It
// parses federated SQL, decomposes it via the global optimizer, dispatches
// fragment execution descriptors through the meta-wrapper, merges fragment
// results locally (joins, aggregation, ordering), charges the merge work to
// the II node's own load model, and logs everything through the query
// patroller. All timing is virtual: every completed query advances the
// shared simulated clock by its response time.
package integrator

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
)

// RoutePolicy lets QCC substitute an alternative global plan for load
// distribution (§4: the round-robin rotation sets). Implementations return
// the winner unchanged when no rotation applies.
type RoutePolicy interface {
	ChooseGlobal(queryText string, winner *optimizer.GlobalPlan) *optimizer.GlobalPlan
}

// IIMergeObserver receives (estimated, observed) pairs for II-side merge
// work; QCC uses them to maintain the workload cost calibration factor
// (§3.2). Nil is allowed.
type IIMergeObserver interface {
	ObserveIIMerge(estMS float64, observed simclock.Time)
}

// RuntimeRerouter implements the paper's long-running-query extension
// ("periodically re-check the load and switch data sources if needed"): it
// is consulted immediately before each fragment dispatches, after compile
// time, and may substitute a different (server, plan) choice when conditions
// changed since compilation. Returning nil keeps the compiled choice.
type RuntimeRerouter interface {
	RerouteFragment(choice optimizer.FragmentChoice) *optimizer.FragmentChoice
}

// RouteAnnotator is an optional extension a RoutePolicy or RuntimeRerouter
// may implement: per-fragment attributes describing the routing decision
// (e.g. the weighted router's score breakdown), attached to the fragment's
// dispatch span. Nil maps add nothing.
type RouteAnnotator interface {
	RouteAttrs(fragID string) map[string]string
}

// ShipObserver receives each fragment's data-shipping mode after a
// successful dispatch, so decision logs can distinguish the row-ship
// baseline from columnar shipping and partial-aggregate pushdown. Nil is
// allowed.
type ShipObserver interface {
	ObserveShip(query, fragID, serverID, mode string)
}

// Config wires an II instance.
type Config struct {
	Catalog *catalog.Catalog
	MW      *metawrapper.MetaWrapper
	// Node models the II machine (merge costing and load).
	Node *remote.Server
	// Clock is the shared virtual clock.
	Clock *simclock.Clock
	// IICalib is QCC's workload calibrator for merge estimates (may be nil).
	IICalib optimizer.IICalibrator
	// Route is QCC's load-distribution hook (may be nil).
	Route RoutePolicy
	// MergeObs receives II merge observations (may be nil).
	MergeObs IIMergeObserver
	// ShipObs receives per-fragment data-shipping modes (may be nil).
	ShipObs ShipObserver
	// Reroute, when non-nil, is consulted before each fragment dispatch
	// (the long-running-query extension).
	Reroute RuntimeRerouter
	// Retries is the number of re-optimize attempts after a fragment
	// execution failure. Nil selects the default (2); point at zero to
	// disable retries entirely. Negative values are treated as zero.
	Retries *int
	// MaxParallel bounds the fragment-dispatch fan-out per query (default
	// GOMAXPROCS, minimum 1). Fragments beyond the bound queue for a slot.
	MaxParallel int
	// FragmentBudget, when positive, is the per-fragment virtual-time
	// deadline: a dispatch whose observed response time exceeds it fails
	// (and is retried through re-optimization like any fragment error).
	FragmentBudget simclock.Time
	// PlanCache tunes the federated plan cache (see plancache.go). The zero
	// value enables it with defaults.
	PlanCache PlanCacheConfig
	// PatrollerCapacity bounds the query patroller's retained log entries:
	// 0 selects DefaultPatrollerCapacity, negative disables the bound.
	PatrollerCapacity int
	// Telemetry is the observability subsystem (nil or disabled is a no-op).
	Telemetry *telemetry.Telemetry
	// Admission, when non-nil, gates every query between compilation and
	// execution: the compiled plan's calibrated cost classifies the query
	// into a workload class and the controller decides run / queue / shed.
	// Under the default unlimited policy the gate is a pass-through and the
	// engine behaves exactly as if Admission were nil.
	Admission *admission.Controller
}

// DefaultRetries is the retry count used when Config.Retries is nil.
const DefaultRetries = 2

// RetryCount returns a *int for Config.Retries.
func RetryCount(n int) *int { return &n }

// fragmentBatchRows is the row count of each batch a fragment streams in:
// large enough to amortize per-batch latency, small enough that a
// multi-thousand-row fragment pipelines through many transfer/produce
// overlaps.
const fragmentBatchRows = 256

// II is the information integrator.
type II struct {
	cfg           Config
	retries       int
	shardPruning  atomic.Bool
	shardPushdown atomic.Bool
	opt           *optimizer.Optimizer
	explain       *optimizer.ExplainTable
	patroller     *Patroller
	plans         *planCache
}

// New builds an II.
func New(cfg Config) *II {
	retries := DefaultRetries
	if cfg.Retries != nil {
		retries = *cfg.Retries
		if retries < 0 {
			retries = 0
		}
	}
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = runtime.GOMAXPROCS(0)
	}
	ii := &II{
		cfg:     cfg,
		retries: retries,
		opt: &optimizer.Optimizer{
			Catalog: cfg.Catalog,
			MW:      cfg.MW,
			IINode:  cfg.Node,
			IICalib: cfg.IICalib,
		},
		explain:   optimizer.NewExplainTable(),
		patroller: NewPatrollerWithCapacity(cfg.PatrollerCapacity),
		plans:     newPlanCache(cfg.PlanCache),
	}
	ii.shardPruning.Store(true)
	ii.shardPushdown.Store(true)
	// The optimizer reads the shard toggles through this hook on every
	// decomposition; it is installed once here, before any query runs, so
	// the optimizer struct itself stays immutable under concurrency.
	ii.opt.ShardOptions = func() optimizer.DecomposeOpts {
		return optimizer.DecomposeOpts{
			DisablePruning:  !ii.shardPruning.Load(),
			DisablePushdown: !ii.shardPushdown.Load(),
		}
	}
	return ii
}

// ShardPruning reports whether predicates on a shard key prune the shard
// fan-out.
func (ii *II) ShardPruning() bool { return ii.shardPruning.Load() }

// SetShardPruning toggles predicate-based shard pruning (default on).
// Turning it off scatter-gathers every shard of every sharded table. The
// plan cache is cleared on a change, since cached decompositions embed the
// pruned fragment set.
func (ii *II) SetShardPruning(on bool) {
	if ii.shardPruning.Swap(on) != on {
		ii.ClearPlanCache()
	}
}

// ShardPushdown reports whether aggregate queries over sharded tables push
// partial aggregation into the shard fragments.
func (ii *II) ShardPushdown() bool { return ii.shardPushdown.Load() }

// SetShardPushdown toggles two-phase partial-aggregate pushdown (default
// on). Off selects the ship-everything baseline: every shard ships its full
// pre-aggregation result, as boxed rows ("row-ship") or typed column
// batches ("col-ship") depending on the columnar wire flag. On, shards ship
// partial-aggregate states instead ("pushdown" / "pushdown-col"). Fragment
// spans carry the active mode in their "ship" attribute and the decision
// log records it, so the four modes are distinguishable after the fact.
// The plan cache is cleared on a change.
func (ii *II) SetShardPushdown(on bool) {
	if ii.shardPushdown.Swap(on) != on {
		ii.ClearPlanCache()
	}
}

// Optimizer exposes the global optimizer (QCC's what-if analysis drives it
// directly with masking).
func (ii *II) Optimizer() *optimizer.Optimizer { return ii.opt }

// ExplainTable exposes the stored winners.
func (ii *II) ExplainTable() *optimizer.ExplainTable { return ii.explain }

// Patroller exposes the query log.
func (ii *II) Patroller() *Patroller { return ii.patroller }

// Clock exposes the shared clock.
func (ii *II) Clock() *simclock.Clock { return ii.cfg.Clock }

// SetRoute installs or replaces the routing policy.
func (ii *II) SetRoute(r RoutePolicy) { ii.cfg.Route = r }

// SetMergeObserver installs the II merge observer (QCC's §3.2 input).
func (ii *II) SetMergeObserver(o IIMergeObserver) { ii.cfg.MergeObs = o }

// SetShipObserver installs the per-fragment ship-mode observer.
func (ii *II) SetShipObserver(o ShipObserver) { ii.cfg.ShipObs = o }

// SetRerouter installs the runtime fragment rerouter.
func (ii *II) SetRerouter(r RuntimeRerouter) { ii.cfg.Reroute = r }

// SetIICalibrator installs the II workload calibrator used when costing
// merge work during optimization.
func (ii *II) SetIICalibrator(c optimizer.IICalibrator) { ii.opt.IICalib = c }

// Telemetry exposes the observability subsystem (may be nil).
func (ii *II) Telemetry() *telemetry.Telemetry { return ii.cfg.Telemetry }

// SetTelemetry installs the observability subsystem (nil disables). Like the
// other setters, install before serving queries; runtime on/off switching
// goes through telemetry.SetEnabled.
func (ii *II) SetTelemetry(t *telemetry.Telemetry) { ii.cfg.Telemetry = t }

// Admission exposes the admission controller (may be nil).
func (ii *II) Admission() *admission.Controller { return ii.cfg.Admission }

// SetAdmission installs the admission controller (nil removes the gate).
// Install before serving queries; runtime policy changes go through the
// controller itself.
func (ii *II) SetAdmission(c *admission.Controller) { ii.cfg.Admission = c }

// PlanCacheStats snapshots the federated plan cache's counters.
func (ii *II) PlanCacheStats() PlanCacheStats { return ii.plans.snapshot() }

// SetPlanCacheMaxAge overrides the cache's staleness bound (values <= 0 are
// ignored). QCC wiring aligns it with the load balancer's rotation refresh
// interval so cached routing never outlives a rotation epoch.
func (ii *II) SetPlanCacheMaxAge(maxAge simclock.Time) { ii.plans.setMaxAge(maxAge) }

// SetPlanCacheEnabled toggles the federated plan cache at runtime; disabling
// also clears it.
func (ii *II) SetPlanCacheEnabled(enabled bool) { ii.plans.setEnabled(enabled) }

// ClearPlanCache drops every cached compilation.
func (ii *II) ClearPlanCache() { ii.plans.clear(InvalidateClear) }

// QueryResult is the outcome of one federated query.
type QueryResult struct {
	// Rel is the merged result.
	Rel *sqltypes.Relation
	// Plan is the executed global plan.
	Plan *optimizer.GlobalPlan
	// FragmentTimes maps fragment IDs to observed response times.
	FragmentTimes map[string]simclock.Time
	// ExecutedServers maps fragment IDs to the servers that actually ran
	// them — identical to the plan's routing unless a runtime rerouter
	// substituted a fragment.
	ExecutedServers map[string]string
	// MergeTime is the observed II-side merge time.
	MergeTime simclock.Time
	// ResponseTime is the end-user response time: parallel remote phase
	// (max fragment time) plus merge.
	ResponseTime simclock.Time
	// FirstRowTime is when the first merged result row could be emitted:
	// the latest first-batch arrival across fragments plus the merge, which
	// runs once over the drained fragments.
	FirstRowTime simclock.Time
	// Retried counts re-optimizations after fragment failures.
	Retried int
	// QueueWait is the virtual time spent in the admission queue before
	// execution (zero when admission is disabled or the query was admitted
	// immediately). It is NOT part of ResponseTime, so calibration
	// observations stay pure execution time; end-to-end latency is
	// QueueWait + ResponseTime.
	QueueWait simclock.Time
	// AdmissionClass is the workload class the query ran under ("" when no
	// admission controller is installed).
	AdmissionClass string
	// Tenant is the tenant the query was submitted under ("" when untagged).
	Tenant string
}

// Query compiles and executes a federated SQL statement.
func (ii *II) Query(sql string) (*QueryResult, error) {
	return ii.QueryContext(context.Background(), sql)
}

// QueryContext compiles and executes a federated SQL statement under the
// given context. It is safe for concurrent use: each completed query charges
// its response time to the shared virtual clock through Clock.Charge, which
// serializes charges so that concurrent submissions reserve disjoint
// virtual-time intervals (the final clock value is the sum of all response
// times, independent of goroutine interleaving).
func (ii *II) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	logID := ii.patroller.SubmitTenant(sql, ii.cfg.Clock.Now(), admission.TenantFromContext(ctx))
	tel := ii.cfg.Telemetry
	trace := tel.StartTrace(sql, ii.cfg.Clock.Now())
	if trace != nil {
		ctx = telemetry.ContextWithSpan(ctx, trace.Root)
	}
	res, grant, err := ii.run(ctx, sql)
	ii.cfg.Clock.AdvanceTo(ii.cfg.Clock.Now()) // flush due events
	if err != nil {
		grant.Release()
		tel.Active().Counter("ii.query_errors", "").Inc()
		tel.Tracer().FinishTrace(trace, err)
		ii.patroller.Complete(logID, ii.cfg.Clock.Now(), err)
		return nil, err
	}
	wait := grant.QueueWait()
	res.QueueWait = wait
	res.AdmissionClass = grant.Class()
	res.Tenant = grant.Tenant()
	if trace != nil {
		// The root span covers queue wait plus execution; with admission
		// disabled the wait is zero and the duration is exactly the
		// response time, as before.
		trace.Root.End(res.ResponseTime + wait)
		tel.Tracer().FinishTrace(trace, nil)
	}
	tel.Active().Counter("ii.queries", "").Inc()
	tel.Active().Histogram("query.first_row_ms", "", nil).Observe(float64(res.FirstRowTime))
	_, end := ii.cfg.Clock.Charge(res.ResponseTime)
	ii.patroller.CompleteWithWait(logID, end, res.ResponseTime, wait, nil)
	// Release after charging so the next admitted waiter's queue wait spans
	// this query's serialized virtual-time interval.
	grant.Release()
	return res, nil
}

// Compile optimizes without executing and records the winner in the explain
// table — the paper's "explain mode". Repeat compilations of a statement are
// served from the federated plan cache (plancache.go) while its entry stays
// valid: only calibration, winner re-pick and routing re-run on a hit.
func (ii *II) Compile(sql string) (*optimizer.GlobalPlan, error) {
	return ii.compile(context.Background(), sql, nil)
}

// compile is the cache-aware compilation path. exclude (may be nil) steers
// the WARM path away from servers that failed the query's earlier fragment
// attempts. The cold path deliberately ignores it: recompiling from scratch
// re-Explains every candidate, which is what discovers whether a failed
// server is really gone — a transient failure may retry on the same (still
// cheapest) source, exactly as before the cache existed.
func (ii *II) compile(ctx context.Context, sql string, exclude optimizer.ExcludeFunc) (*optimizer.GlobalPlan, error) {
	now := ii.cfg.Clock.Now()
	sp := telemetry.SpanFrom(ctx)
	tel := ii.cfg.Telemetry
	if cc := ii.plans.lookup(sql); cc != nil {
		if cause := ii.validateCached(cc, now); cause != "" {
			ii.plans.invalidate(sql, cause)
		} else if gps, err := ii.opt.EnumerateFromOptions(cc.stmt, cc.decomp, cc.frags, 1, exclude); err == nil {
			ii.plans.recordHit()
			tel.Active().Counter("ii.plancache_hits", "").Inc()
			sp.Emit("plancache.lookup", telemetry.LayerII, "", 0).SetAttr("hit", "true")
			sp.Emit("calibrate", telemetry.LayerQCC, "", 0)
			return ii.finishCompile(gps[0]), nil
		} else {
			// Every cached candidate for some fragment is excluded or fenced:
			// fall through to a cold compile, which sees current Explain
			// availability.
			ii.plans.recordMiss()
		}
	}
	sp.Emit("plancache.lookup", telemetry.LayerII, "", 0).SetAttr("hit", "false")
	tel.Active().Counter("ii.plancache_misses", "").Inc()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sp.Emit("parse", telemetry.LayerII, "", 0)
	decomp, frags, err := ii.opt.CollectContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	// Cache before enumerating: even if every option calibrates to +Inf right
	// now (fenced), the collected raw candidates stay valid for when the
	// fence lifts.
	ii.plans.insert(newCachedCompilation(sql, stmt, decomp, frags, ii.cfg.MW, now))
	sp.Emit("calibrate", telemetry.LayerQCC, "", 0)
	gps, err := ii.opt.EnumerateFromOptions(stmt, decomp, frags, 1, nil)
	if err != nil {
		return nil, err
	}
	return ii.finishCompile(gps[0]), nil
}

// finishCompile applies the load-distribution route policy and records the
// winner — the shared tail of the warm and cold compile paths.
func (ii *II) finishCompile(gp *optimizer.GlobalPlan) *optimizer.GlobalPlan {
	if ii.cfg.Route != nil {
		gp = ii.cfg.Route.ChooseGlobal(gp.Query, gp)
	}
	ii.explain.Record(gp, ii.cfg.Clock.Now())
	return gp
}

// newCachedCompilation assembles the cacheable artifact for one compile: the
// parsed statement, decomposition and raw candidate sets, plus the snapshots
// validation compares against — the mask state of every candidate server
// (masked ones contributed no options, so an unmask must invalidate too) and
// each fragment's referenced tables. The mask snapshot is taken here, after
// collection; a mask flip racing the collect window is caught by the next
// lookup's re-validation at the latest when it flips back, and is bounded by
// the staleness age regardless.
func newCachedCompilation(sql string, stmt *sqlparser.SelectStmt, decomp *optimizer.Decomposition, frags []optimizer.FragmentOptions, mw *metawrapper.MetaWrapper, at simclock.Time) *cachedCompilation {
	cc := &cachedCompilation{sql: sql, stmt: stmt, decomp: decomp, frags: frags, insertedAt: at}
	cc.fragTables = make([][]string, len(frags))
	seen := map[string]bool{}
	for i, fo := range frags {
		refs := fo.Spec.Stmt.Tables()
		tables := make([]string, len(refs))
		for j, tr := range refs {
			tables[j] = tr.Name
		}
		cc.fragTables[i] = tables
		for _, sid := range fo.Spec.Candidates {
			if !seen[sid] {
				seen[sid] = true
				cc.servers = append(cc.servers, sid)
			}
		}
	}
	if mw != nil {
		cc.maskSnap = mw.MaskedSet(cc.servers)
	} else {
		cc.maskSnap = map[string]bool{}
	}
	return cc
}

// validateCached checks a cached compilation against current federation
// state, returning the invalidation cause or "" when still usable. Note what
// it does NOT check: calibration factors and availability fencing, which the
// warm re-pick applies fresh on every hit.
func (ii *II) validateCached(cc *cachedCompilation, now simclock.Time) string {
	if maxAge := ii.plans.staleness(); maxAge > 0 && now-cc.insertedAt > maxAge {
		return InvalidateStale
	}
	mw := ii.cfg.MW
	if mw == nil {
		return ""
	}
	cur := mw.MaskedSet(cc.servers)
	for id, wasMasked := range cc.maskSnap {
		if cur[id] != wasMasked {
			return InvalidateMask
		}
	}
	for i, fo := range cc.frags {
		checked := map[string]bool{}
		for _, so := range fo.Options {
			if checked[so.ServerID] {
				continue
			}
			checked[so.ServerID] = true
			if so.Versions == nil {
				return InvalidateVersion
			}
			curVers, err := mw.TableVersions(so.ServerID, cc.fragTables[i])
			if err != nil {
				return InvalidateVersion
			}
			for table, v := range so.Versions {
				if curVers[table] != v {
					return InvalidateVersion
				}
			}
		}
	}
	return ""
}

func (ii *II) run(ctx context.Context, sql string) (*QueryResult, *admission.Grant, error) {
	var lastErr error
	// grant is the admission slot, acquired once after the first successful
	// compile (the compiled plan's calibrated cost is the classification
	// signal) and held across retries; the caller releases it.
	var grant *admission.Grant
	// excluded accumulates the (fragment, server) pairs that failed earlier
	// attempts of THIS query; the warm compile path steers around them so a
	// retry reuses the cached candidate sets instead of recompiling from
	// zero.
	var excluded map[string]map[string]bool
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, grant, fmt.Errorf("integrator: query cancelled after %d attempts: %w", attempt, lastErr)
			}
			return nil, grant, err
		}
		var exclude optimizer.ExcludeFunc
		if len(excluded) > 0 {
			ex := excluded
			exclude = func(fragID, serverID string) bool { return ex[fragID][serverID] }
		}
		gp, err := ii.compile(ctx, sql, exclude)
		if err != nil {
			return nil, grant, err
		}
		if grant == nil && ii.cfg.Admission != nil {
			g, err := ii.cfg.Admission.Admit(ctx, admission.Request{
				Query:  sql,
				CostMS: gp.TotalEstMS,
				Class:  admission.ClassFromContext(ctx),
				Tenant: admission.TenantFromContext(ctx),
			})
			if err != nil {
				return nil, nil, err
			}
			grant = g
			if grant.Queued() {
				// Only genuinely queued queries record a wait span: the
				// unlimited (disabled) policy never queues, keeping the span
				// sequence identical to an engine without admission.
				ws := telemetry.SpanFrom(ctx).Emit("admission.wait", telemetry.LayerII, "", grant.QueueWait())
				ws.SetAttr("class", grant.Class())
				if t := grant.Tenant(); t != "" {
					ws.SetAttr("tenant", t)
				}
			}
		}
		res, err := ii.ExecuteContext(ctx, gp)
		if err == nil {
			res.Retried = attempt
			return res, grant, nil
		}
		lastErr = err
		var fe *FragmentError
		if errors.As(err, &fe) {
			if excluded == nil {
				excluded = map[string]map[string]bool{}
			}
			if excluded[fe.FragID] == nil {
				excluded[fe.FragID] = map[string]bool{}
			}
			excluded[fe.FragID][fe.ServerID] = true
		}
		if attempt < ii.retries {
			ii.cfg.Telemetry.Active().Counter("ii.retries", "").Inc()
			rs := telemetry.SpanFrom(ctx).Emit("retry", telemetry.LayerII, "", 0)
			rs.SetAttr("attempt", fmt.Sprint(attempt+1))
			rs.SetAttr("cause", err.Error())
		}
		if attempt >= ii.retries {
			// attempt counts the retries already consumed: the failed run
			// above was attempt number attempt+1, of which `attempt` were
			// retries.
			return nil, grant, fmt.Errorf("integrator: query failed after %d retries: %w", attempt, lastErr)
		}
	}
}

// Execute runs a compiled global plan with a background context.
func (ii *II) Execute(gp *optimizer.GlobalPlan) (*QueryResult, error) {
	return ii.ExecuteContext(context.Background(), gp)
}

// FragmentError is a fragment execution failure tagged with the routing that
// produced it. The retry loop unwraps it to steer the next (warm) compile
// away from the failed server.
type FragmentError struct {
	FragID   string
	ServerID string
	Err      error
}

func (e *FragmentError) Error() string {
	return fmt.Sprintf("integrator: fragment %s at %s: %v", e.FragID, e.ServerID, e.Err)
}

func (e *FragmentError) Unwrap() error { return e.Err }

// fragOutcome is one fragment dispatch's result, indexed by plan position so
// the merge always sees fragments in plan order regardless of completion
// order.
type fragOutcome struct {
	// batches are the fragment's stream batches in arrival order.
	batches  []*colbatch.Batch
	schema   *sqltypes.Schema
	respTime simclock.Time
	firstRow simclock.Time
	serverID string
	fragID   string
	// wire marks a fragment delivered over the columnar wire protocol.
	wire bool
}

// shipMode names how a fragment's data crossed the wire, for spans and the
// decision log:
//
//	"row-ship"     the full (or whole-row baseline) result, row protocol
//	"col-ship"     typed column batches of the same rows (columnar wire)
//	"pushdown"     partial-aggregate states, row protocol
//	"pushdown-col" partial-aggregate states as typed column batches
func shipMode(gp *optimizer.GlobalPlan, f optimizer.FragmentChoice, wire bool) string {
	pushdown := f.Spec.Shard != nil && gp.Decomp.Sharded != nil && gp.Decomp.Sharded.Partial != nil
	switch {
	case pushdown && wire:
		return "pushdown-col"
	case pushdown:
		return "pushdown"
	case wire:
		return "col-ship"
	default:
		return "row-ship"
	}
}

// dispatchFragment streams one fragment through MW in batches of
// fragmentBatchRows, keeping the batches as they arrive; the merge
// concatenates them.
func (ii *II) dispatchFragment(ctx context.Context, f optimizer.FragmentChoice) (fragOutcome, error) {
	st, err := ii.cfg.MW.OpenFragmentStream(ctx, f.ServerID, f.Spec.Stmt.String(), f.Plan, f.RawEst, fragmentBatchRows)
	if err != nil {
		return fragOutcome{}, err
	}
	var batches []*colbatch.Batch
	for {
		b, err := st.Next(ctx)
		if err != nil {
			return fragOutcome{}, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b.Col)
	}
	out := st.Outcome()
	return fragOutcome{
		batches:  batches,
		schema:   st.Schema(),
		respTime: out.ResponseTime,
		firstRow: out.FirstRowTime,
		serverID: f.ServerID,
		fragID:   f.Spec.ID,
		// An encoded batch carries header bytes even when empty, so any
		// fragment shipped over the columnar wire has WireBytes > 0.
		wire: out.WireBytes > 0,
	}, nil
}

// ExecuteContext runs a compiled global plan: fragments dispatch through MW
// on concurrent goroutines (bounded by Config.MaxParallel), then the local
// merge runs over the results in plan order. The first fragment error
// cancels the remaining dispatches; every dispatch context carries the
// per-fragment virtual-time deadline when Config.FragmentBudget is set.
func (ii *II) ExecuteContext(ctx context.Context, gp *optimizer.GlobalPlan) (*QueryResult, error) {
	root := telemetry.SpanFrom(ctx)
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fctx = simclock.WithDeadline(fctx, ii.cfg.FragmentBudget)

	outcomes := make([]fragOutcome, len(gp.Fragments))
	sem := make(chan struct{}, ii.cfg.MaxParallel)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for i, f := range gp.Fragments {
		wg.Add(1)
		go func(i int, f optimizer.FragmentChoice) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-fctx.Done():
				return
			}
			if fctx.Err() != nil {
				return
			}
			rerouted := false
			if ii.cfg.Reroute != nil {
				if alt := ii.cfg.Reroute.RerouteFragment(f); alt != nil {
					f = *alt
					rerouted = true
				}
			}
			fspan := root.Child("fragment", telemetry.LayerMW, f.ServerID)
			fspan.SetAttr("frag", f.Spec.ID)
			if f.Spec.Shard != nil {
				// Distinguish scatter-gather fan-out from replica routing in
				// traces: shard fragments carry their shard index.
				fspan.SetAttr("shard", fmt.Sprintf("%d", f.Spec.Shard.Index))
				ii.cfg.Telemetry.Active().Counter("shard.fragments", f.ServerID).Inc()
			}
			if rerouted {
				fspan.SetAttr("rerouted", "true")
				ii.cfg.Telemetry.Active().Counter("ii.reroutes", f.ServerID).Inc()
			}
			// Score-breakdown (or other) routing attributes, when the active
			// policy exposes them. Checked on the rerouter first (freshest
			// decision), then the compile-time route policy.
			for _, p := range []any{ii.cfg.Reroute, ii.cfg.Route} {
				if ann, ok := p.(RouteAnnotator); ok {
					for k, v := range ann.RouteAttrs(f.Spec.ID) {
						fspan.SetAttr(k, v)
					}
					break
				}
			}
			// Queue wait is zero in virtual time: the dispatch semaphore bounds
			// REAL concurrency only — every fragment starts at the same virtual
			// instant. The sub-span records the model's claim explicitly.
			fspan.Emit("queue", telemetry.LayerII, "", 0)
			dctx := fctx
			if fspan != nil {
				dctx = telemetry.ContextWithSpan(fctx, fspan)
			}
			out, err := ii.dispatchFragment(dctx, f)
			if err != nil {
				fspan.SetAttr("error", err.Error())
				fspan.End(0)
				if fctx.Err() == nil || ctx.Err() != nil {
					fail(&FragmentError{FragID: f.Spec.ID, ServerID: f.ServerID, Err: err})
				}
				return
			}
			mode := shipMode(gp, f, out.wire)
			fspan.SetAttr("ship", mode)
			fspan.End(out.respTime)
			ii.cfg.Telemetry.Active().Counter("ii.fragments", f.ServerID).Inc()
			if ii.cfg.ShipObs != nil {
				ii.cfg.ShipObs.ObserveShip(gp.Stmt.String(), f.Spec.ID, f.ServerID, mode)
			}
			outcomes[i] = out
		}(i, f)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fragTimes := make(map[string]simclock.Time, len(outcomes))
	executed := make(map[string]string, len(outcomes))
	var remotePhase, firstPhase simclock.Time
	for _, o := range outcomes {
		fragTimes[o.fragID] = o.respTime
		executed[o.fragID] = o.serverID
		if o.respTime > remotePhase {
			remotePhase = o.respTime
		}
		if o.firstRow > firstPhase {
			firstPhase = o.firstRow
		}
	}

	rel, mergeTime, blocking, err := ii.merge(gp, outcomes)
	if err != nil {
		return nil, err
	}
	// The parallel remote phase occupies max(fragment times) of the root's
	// virtual timeline; the merge follows it sequentially.
	root.Advance(remotePhase)
	msp := root.Emit("merge", telemetry.LayerII, "", mergeTime)
	if blocking != "" {
		msp.SetAttr("blocking", blocking)
	}
	if ii.cfg.MergeObs != nil {
		ii.cfg.MergeObs.ObserveIIMerge(gp.MergeEstMS, mergeTime)
	}
	return &QueryResult{
		Rel:             rel,
		Plan:            gp,
		FragmentTimes:   fragTimes,
		ExecutedServers: executed,
		MergeTime:       mergeTime,
		ResponseTime:    remotePhase + mergeTime,
		// A join merge needs every fragment's first batch before it can
		// emit anything, so the query-level first row waits on the slowest
		// fragment's first batch plus the merge.
		FirstRowTime: firstPhase + mergeTime,
	}, nil
}

// merge combines fragment results at the II node in one materialized pass.
// Every fragment has been drained before the merge runs, so the merge plan
// executes once, vectorized, over Values leaves holding the arrived batches;
// rows are boxed once, from its output. It returns the merged rows, the
// merge's virtual time and the plan's first pipeline-breaking stage
// (exec.BlockingStage) for the merge span.
func (ii *II) merge(gp *optimizer.GlobalPlan, outcomes []fragOutcome) (*sqltypes.Relation, simclock.Time, string, error) {
	ctx := &exec.Context{}
	if gp.Decomp.SingleFragment {
		// The remote ran the whole statement: the rows pass through,
		// charged the one op per row a Values leaf charges.
		o := outcomes[0]
		n := 0
		for _, b := range o.batches {
			n += b.Len()
		}
		rel := &sqltypes.Relation{Schema: o.schema, Rows: make([]sqltypes.Row, 0, n)}
		for _, b := range o.batches {
			for i := 0; i < b.Len(); i++ {
				rel.Rows = append(rel.Rows, b.Row(i))
			}
		}
		ctx.Res.CPUOps = float64(rel.Cardinality())
		return rel, ii.cfg.Node.Observe(ctx.Res), "", nil
	}
	top, err := mergePlan(gp, outcomes)
	if err != nil {
		return nil, 0, "", fmt.Errorf("integrator: building merge plan: %w", err)
	}
	out, err := exec.ExecuteVectorized(top, ctx)
	if err != nil {
		return nil, 0, "", fmt.Errorf("integrator: merging: %w", err)
	}
	return out.ToRelation(), ii.cfg.Node.Observe(ctx.Res), exec.BlockingStage(top), nil
}

// mergePlan builds the II-side operator tree over the fragment results, one
// Values leaf per logical fragment.
func mergePlan(gp *optimizer.GlobalPlan, outcomes []fragOutcome) (exec.Operator, error) {
	// Scatter-gather: per-shard fragments sharing Shard.Of concatenate into
	// one logical fragment before merging.
	ids, cols := logicalFragments(gp, outcomes)
	leaf := func(i int) *exec.Values { return &exec.Values{Col: cols[i], Label: ids[i]} }

	if sh := gp.Decomp.Sharded; sh != nil {
		// Single sharded table: the union of shard results feeds the
		// statement tail directly — ShardAggFinal merges partial aggregate
		// states under pushdown, BuildTop applies the full tail over
		// gathered rows otherwise.
		if sh.Partial != nil {
			return exec.BuildShardFinal(gp.Stmt, sh.Base, leaf(0))
		}
		return exec.BuildTop(gp.Stmt, leaf(0))
	}

	// Join fragments left-to-right on the cross-source conjuncts.
	cross := append([]sqlparser.Expr(nil), gp.Decomp.Cross...)
	var current exec.Operator = leaf(0)
	for i := 1; i < len(cols); i++ {
		right := leaf(i)
		lk, rk, rest, ok := exec.ExtractEquiJoinKeys(cross, current.Schema(), right.Schema())
		if ok {
			joined := current.Schema().Concat(right.Schema())
			var residuals, remaining []sqlparser.Expr
			for _, c := range rest {
				if sqlparser.Resolves(c, joined) {
					residuals = append(residuals, c)
				} else {
					remaining = append(remaining, c)
				}
			}
			current = &exec.HashJoin{
				Build:    current,
				Probe:    right,
				BuildKey: lk,
				ProbeKey: rk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
			continue
		}
		joined := current.Schema().Concat(right.Schema())
		var preds, remaining []sqlparser.Expr
		for _, c := range cross {
			if sqlparser.Resolves(c, joined) {
				preds = append(preds, c)
			} else {
				remaining = append(remaining, c)
			}
		}
		current = &exec.NestedLoopJoin{Outer: current, Inner: right, Pred: sqlparser.JoinConjuncts(preds)}
		cross = remaining
	}
	if len(cross) > 0 {
		current = &exec.Filter{Input: current, Pred: sqlparser.JoinConjuncts(cross)}
	}
	return exec.BuildTop(gp.Stmt, current)
}

// logicalFragments folds fragment results into logical fragments: outcomes
// sharing Spec.Shard.Of concatenate in plan order, others stand alone. Each
// logical fragment's batches are gathered and concatenated once.
func logicalFragments(gp *optimizer.GlobalPlan, outcomes []fragOutcome) ([]string, []*colbatch.Batch) {
	var ids []string
	var parts [][]*colbatch.Batch
	var schemas []*sqltypes.Schema
	pos := map[string]int{}
	for i, f := range gp.Fragments {
		key := f.Spec.ID
		if f.Spec.Shard != nil {
			key = f.Spec.Shard.Of
		}
		j, ok := pos[key]
		if !ok {
			j = len(ids)
			pos[key] = j
			ids = append(ids, key)
			parts = append(parts, nil)
			schemas = append(schemas, outcomes[i].schema)
		}
		parts[j] = append(parts[j], outcomes[i].batches...)
	}
	cols := make([]*colbatch.Batch, len(ids))
	for j, bs := range parts {
		cols[j] = colbatch.Concat(schemas[j], bs)
	}
	return ids, cols
}
