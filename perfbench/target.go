package main

import (
	"context"
	"fmt"

	fedqcc "repro"
	"repro/internal/admission"
	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
	"repro/internal/wrapper"
)

// outcome is one query's result as the benchmark sees it, whichever
// federation build ran it.
type outcome struct {
	rows     *sqltypes.Relation
	resp     float64 // ResponseTime, virtual ms
	firstRow float64 // FirstRowTime, virtual ms
	wait     float64 // QueueWait, virtual ms
	route    map[string]string
	retried  int
}

// counters snapshots the program's own public counters.
type counters struct {
	planHits, planMisses int64
	stmtHits, stmtMisses int64
	executed             map[string]int64
	admitted, queued     int64
	shed, rejected       int64
	servedCost           map[string]float64
}

// admissionControl is the slice of the admission surface workloads
// configure; the public handle and the controller both provide it.
type admissionControl interface {
	SetGlobalCap(n int)
	RegisterTenant(t admission.Tenant)
}

// target is a federation under test.
type target interface {
	query(ctx context.Context, sql string) (outcome, error)
	setLoad(server string, level float64) error
	burst(server, table string, rows int, seed int64) error
	runLog() []metawrapper.RunLogEntry
	counters() counters
	admission() admissionControl
}

// publicTarget is the default configuration reached only through the public
// API: the federation every user builds. End-to-end metrics come from it.
type publicTarget struct {
	fed *fedqcc.Federation
}

func newPublicTarget(fed *fedqcc.Federation) *publicTarget {
	fed.EnableQCC(fedqcc.QCCOptions{})
	return &publicTarget{fed: fed}
}

func (t *publicTarget) query(ctx context.Context, sql string) (outcome, error) {
	res, err := t.fed.QueryContext(ctx, sql)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		rows:     res.Rows,
		resp:     float64(res.ResponseTime),
		firstRow: float64(res.FirstRowTime),
		wait:     float64(res.QueueWait),
		route:    res.Route,
		retried:  res.Retried,
	}, nil
}

func (t *publicTarget) setLoad(server string, level float64) error {
	h, err := t.fed.Server(server)
	if err != nil {
		return err
	}
	h.SetLoad(level)
	return nil
}

func (t *publicTarget) burst(server, table string, rows int, seed int64) error {
	h, err := t.fed.Server(server)
	if err != nil {
		return err
	}
	return h.ApplyUpdateBurst(table, rows, seed)
}

func (t *publicTarget) runLog() []metawrapper.RunLogEntry { return t.fed.RunLog() }

func (t *publicTarget) admission() admissionControl { return t.fed.Admission() }

func (t *publicTarget) counters() counters {
	pc := t.fed.PlanCacheStats()
	c := counters{planHits: pc.Hits, planMisses: pc.Misses, executed: map[string]int64{}}
	for _, id := range t.fed.ServerIDs() {
		h, err := t.fed.Server(id)
		if err != nil {
			continue
		}
		sc := h.StatementCacheStats()
		c.stmtHits += sc.Hits
		c.stmtMisses += sc.Misses
		c.executed[id] = h.Executed()
	}
	c.addAdmission(t.fed.Admission().Stats(), t.fed.Admission().TenantStats())
	return c
}

func (c *counters) addAdmission(st admission.Stats, tenants []admission.TenantStats) {
	for _, cl := range st.Classes {
		c.admitted += cl.Admitted
		c.queued += cl.QueuedTotal
		c.shed += cl.Shed
		c.rejected += cl.Rejected
	}
	c.servedCost = map[string]float64{}
	for _, ts := range tenants {
		c.servedCost[ts.Name] = ts.ServedCostMS
	}
}

// tracedTarget is the same default configuration assembled from the
// scenario's parts, so that timing decorators can be slotted into the seams
// the layers expose: every wrapper handed to metawrapper.New, QCC's
// Observer, Calibrator and merge observer, and the integrator's
// RoutePolicy. The wiring mirrors fedqcc's federation constructor and
// EnableQCC(QCCOptions{}); the traced run proves the mirror faithful by
// reproducing the untraced run's rows, routes and virtual times.
type tracedTarget struct {
	servers map[string]*remote.Server
	mw      *metawrapper.MetaWrapper
	ii      *integrator.II
	adm     *admission.Controller
}

func newTracedTarget(sc *scenario.Scenario, rec *recorder) *tracedTarget {
	tel := telemetry.New(telemetry.Config{})
	var ws []wrapper.Wrapper
	for _, id := range sc.MW.Servers() {
		ws = append(ws, decorateWrapper(sc.MW.Wrapper(id), rec))
	}
	mw := metawrapper.New(ws...)
	ii := integrator.New(integrator.Config{Catalog: sc.Catalog, MW: mw, Node: sc.IINode, Clock: sc.Clock})
	ii.SetTelemetry(tel)
	mw.SetTelemetry(tel)
	sc.Topo.SetTelemetry(tel)
	for _, srv := range sc.Servers {
		srv.SetTelemetry(tel)
	}
	sc.IINode.SetTelemetry(tel)
	adm := admission.New(admission.Config{Clock: sc.Clock, Telemetry: tel})
	ii.SetAdmission(adm)
	routeLog := router.NewDecisionLog(0)
	ii.SetShipObserver(shipLog{clock: sc.Clock, log: routeLog})

	q := qcc.Attach(qcc.Config{
		Clock:       sc.Clock,
		MW:          mw,
		Calibration: qcc.CalibrationConfig{PerFragment: true},
		Cycle:       qcc.CycleConfig{Dynamic: true},
		Telemetry:   tel,
	}, ii)
	q.SetDemandSource(adm.QueueDepth)
	if q.LB != nil {
		q.LB.SetDecisionLog(routeLog)
		ii.SetRoute(decorateRoute(q.LB, rec))
	}
	ii.SetPlanCacheMaxAge(q.PlanRefreshInterval())
	d := timedQCC{q: q, rec: rec}
	mw.SetObserver(d)
	mw.SetCalibrator(d)
	ii.SetMergeObserver(d)
	return &tracedTarget{servers: sc.Servers, mw: mw, ii: ii, adm: adm}
}

// shipLog records fragment ship modes into the routing decision log, as
// the public federation does.
type shipLog struct {
	clock *simclock.Clock
	log   *router.DecisionLog
}

func (s shipLog) ObserveShip(query, fragID, serverID, mode string) {
	s.log.Record(router.Decision{At: s.clock.Now(), Query: query, Policy: "ship", Route: fragID + "→" + serverID, Reason: mode})
}

func (t *tracedTarget) query(ctx context.Context, sql string) (outcome, error) {
	res, err := t.ii.QueryContext(ctx, sql)
	if err != nil {
		return outcome{}, err
	}
	route := map[string]string{}
	for _, f := range res.Plan.Fragments {
		route[f.Spec.ID] = f.ServerID
	}
	for id, s := range res.ExecutedServers {
		route[id] = s
	}
	return outcome{
		rows:     res.Rel,
		resp:     float64(res.ResponseTime),
		firstRow: float64(res.FirstRowTime),
		wait:     float64(res.QueueWait),
		route:    route,
		retried:  res.Retried,
	}, nil
}

func (t *tracedTarget) server(id string) (*remote.Server, error) {
	srv, ok := t.servers[id]
	if !ok {
		return nil, fmt.Errorf("unknown server %q", id)
	}
	return srv, nil
}

func (t *tracedTarget) setLoad(server string, level float64) error {
	srv, err := t.server(server)
	if err != nil {
		return err
	}
	srv.SetLoadLevel(level)
	return nil
}

func (t *tracedTarget) burst(server, table string, rows int, seed int64) error {
	srv, err := t.server(server)
	if err != nil {
		return err
	}
	return srv.ApplyUpdateBurst(table, rows, seed)
}

func (t *tracedTarget) runLog() []metawrapper.RunLogEntry { return t.mw.RunLog() }

func (t *tracedTarget) admission() admissionControl { return t.adm }

func (t *tracedTarget) counters() counters {
	pc := t.ii.PlanCacheStats()
	c := counters{planHits: pc.Hits, planMisses: pc.Misses, executed: map[string]int64{}}
	for id, srv := range t.servers {
		sc := srv.StatementCacheStats()
		c.stmtHits += sc.Hits
		c.stmtMisses += sc.Misses
		c.executed[id] = srv.Executed()
	}
	c.addAdmission(t.adm.Stats(), t.adm.TenantStats())
	return c
}
