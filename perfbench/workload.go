package main

import (
	"fmt"
	"math/rand"

	fedqcc "repro"
	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// dataSeed fixes the generated table contents. The workload seed varies only
// the SQL stream and the phase schedule; the federation itself receives
// nothing but those generated inputs.
const dataSeed = 42

// warmupSeed draws the warm-up queries.
const warmupSeed = 0x5eed

// item is one query of a session's stream.
type item struct {
	sql string
	// epoch is the phase step the query runs in (paper-phases; 0 elsewhere).
	epoch int
	// startsEpoch marks the first query of an epoch: the phase change is
	// applied before it runs.
	startsEpoch bool
}

// stream yields a session's queries in order, deterministically from the
// seed.
type stream interface {
	next() item
}

// spec defines one workload.
type spec struct {
	name     string
	why      string
	scale    int
	sessions int
	// tenants tags each session's queries (nil: untagged).
	tenants []string
	// public builds the default federation through the public API;
	// scenario assembles the same federation's parts for the traced run.
	public   func() (*fedqcc.Federation, error)
	scenario func() (*scenario.Scenario, error)
	// configure applies the workload's admission settings.
	configure func(admissionControl)
	streams   func(seed int64) []stream
	// warmup lists the set-up queries. They do not depend on the workload
	// seed, so set-up does the same work in every run.
	warmup func() []string
	// phases, when set, are cycled one per epoch (paper-phases), setting
	// the load of servers and sending update bursts to every one of them.
	phases      []workload.Phase
	servers     []string
	epochLen    int
	burstRows   int
	burstTables []string
	// virtualPrefix, when positive, is the number of queries (from the
	// window's start) the virtual metrics are taken over: whole phase
	// cycles, so the virtual figures of one seed repeat exactly.
	virtualPrefix int
	// wireQueries is the query count wire_bytes_per_query is taken over:
	// the window's first queries, as many as the workload's fragment runs
	// (and the warm-up's) leave room for in the meta-wrapper's run log.
	wireQueries int
	// oracle builds the ground-truth server: one server holding the full
	// tables, queried directly.
	oracle func() (*scenario.Scenario, error)
}

func specs() []*spec {
	return []*spec{paperPhases(), scanShip(), tenantOverload()}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func paperFederation(scale int) (func() (*fedqcc.Federation, error), func() (*scenario.Scenario, error)) {
	return func() (*fedqcc.Federation, error) {
			return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: scale, Seed: dataSeed})
		}, func() (*scenario.Scenario, error) {
			return scenario.BuildThreeServer(scenario.Options{Scale: scale, Seed: dataSeed})
		}
}

// paperPhases is the paper's own experiment: one session, QT1–QT4
// instances, the eight Table-1 load phases cycled with write bursts.
func paperPhases() *spec {
	const scale = 20
	pub, sc := paperFederation(scale)
	s := &spec{
		name:        "paper-phases",
		why:         "The paper's experiment: QT1-QT4 under the 8 Table-1 load phases with write bursts; compile-heavy, QCC routing sets virtual latency; one session, so virtual results replay exactly.",
		scale:       scale,
		sessions:    1,
		servers:     []string{"S1", "S2", "S3"},
		public:      pub,
		scenario:    sc,
		oracle:      sc,
		phases:      workload.Phases(),
		epochLen:    32,
		burstRows:   25,
		burstTables: []string{"orders", "lineitem", "customer", "parts"},
	}
	s.virtualPrefix = 2 * len(s.phases) * s.epochLen
	s.wireQueries = s.virtualPrefix // one fragment per query
	s.streams = func(seed int64) []stream {
		r := rand.New(rand.NewSource(seed))
		return []stream{&qtStream{r: r, types: &deck{r: r, n: len(workload.Types())}, epochLen: s.epochLen}}
	}
	s.warmup = func() []string {
		r := rand.New(rand.NewSource(warmupSeed))
		types := &deck{r: r, n: len(workload.Types())}
		out := make([]string, 16)
		for i := range out {
			out[i] = qtInstance(types, r)
		}
		return out
	}
	return s
}

// deck deals the indices 0..n-1 in blocks: each block is a seeded
// permutation of all n, so every choice's share of a stream is exact per
// block and the seed varies only the order (and whatever else it draws).
// Stratifying this way keeps the mix — and the figures that depend on it —
// from drifting between seeds.
type deck struct {
	r    *rand.Rand
	n    int
	left []int
}

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = d.r.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// qtInstance draws one of the 40 QT1–QT4 statements (10 instances each):
// the type from the deck, the instance uniformly.
func qtInstance(types *deck, r *rand.Rand) string {
	return workload.Types()[types.draw()].Make(r.Intn(10))
}

type qtStream struct {
	r        *rand.Rand
	types    *deck
	epochLen int
	n        int
}

func (s *qtStream) next() item {
	it := item{sql: qtInstance(s.types, s.r), epoch: s.n / s.epochLen, startsEpoch: s.n%s.epochLen == 0}
	s.n++
	return it
}

// burstSeed seeds an epoch's update bursts, derived from the workload seed
// so the whole phase schedule is part of the generated input.
func burstSeed(seed int64, epoch int) int64 { return seed*1_000_003 + int64(epoch) }

// scanShipTemplates are the data-path-heavy statements: a wide row-shipping
// scan, a GROUP BY whose partial aggregates are pushed into the shards, and
// a sharded⋈replicated join gathered at the integrator.
var scanShipTemplates = []string{
	"SELECT l.l_id, l.l_orderkey, l.l_qty, l.l_price, l.l_tag FROM lineitem AS l WHERE l.l_price > %d",
	"SELECT l.l_tag, COUNT(*), SUM(l.l_qty), AVG(l.l_price) FROM lineitem AS l WHERE l.l_qty > %d GROUP BY l.l_tag",
	"SELECT o.o_id, o.o_priority, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < %d",
}

// scanShipLiterals are each template's parameter choices.
var scanShipLiterals = [][]int{
	{350, 450, 550, 650, 750},
	{5, 15, 25, 35, 45},
	{2, 3, 4, 5, 6},
}

func scanShipPool() []string {
	var out []string
	for i, t := range scanShipTemplates {
		for _, v := range scanShipLiterals[i] {
			out = append(out, fmt.Sprintf(t, v))
		}
	}
	return out
}

func scanShip() *spec {
	const scale, shards = 10, 4
	pool := scanShipPool()
	return &spec{
		name:     "scan-ship",
		why:      "Data path dominates: 4 hash shards, wide row-shipping scans, pushed-down GROUP BY and sharded-replicated joins; ~220 KB shipped per query, compile mostly plan-cache hits.",
		scale:    scale,
		sessions: 2,
		// Up to five fragments per query: four shards and a replicated
		// table.
		wireQueries: 512,
		public: func() (*fedqcc.Federation, error) {
			return fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: shards, Scale: scale, Seed: dataSeed})
		},
		scenario: func() (*scenario.Scenario, error) {
			return scenario.BuildSharded(scenario.ShardedOptions{Shards: shards, Scale: scale, Seed: dataSeed, Method: catalog.ShardHash})
		},
		// Ground truth: the unsharded single-server federation.
		oracle: func() (*scenario.Scenario, error) {
			return scenario.BuildSharded(scenario.ShardedOptions{Shards: 1, Scale: scale, Seed: dataSeed})
		},
		streams: func(seed int64) []stream {
			out := make([]stream, 2)
			for i := range out {
				out[i] = &poolStream{d: &deck{r: rand.New(rand.NewSource(seed*31 + int64(i))), n: len(pool)}, pool: pool}
			}
			return out
		},
		warmup: func() []string { return pool },
	}
}

type poolStream struct {
	d    *deck
	pool []string
}

func (s *poolStream) next() item { return item{sql: s.pool[s.d.draw()]} }

func tenantOverload() *spec {
	const scale = 50
	pub, sc := paperFederation(scale)
	return &spec{
		name:     "tenant-overload",
		why:      "The only workload where admission works: global cap 1, gold (weight 3) and bronze (weight 1) sessions; RandomQuery literals overflow the plan and statement caches.",
		scale:    scale,
		sessions: 2,
		tenants:  []string{"gold", "bronze"},
		// One fragment per query: every table is on every server.
		wireQueries: 3840,
		public:      pub,
		scenario:    sc,
		oracle:      sc,
		configure: func(a admissionControl) {
			a.SetGlobalCap(1)
			a.RegisterTenant(admission.Tenant{Name: "gold", Weight: 3})
			a.RegisterTenant(admission.Tenant{Name: "bronze", Weight: 1})
		},
		streams: func(seed int64) []stream {
			out := make([]stream, 2)
			for i := range out {
				out[i] = &randomStream{r: rand.New(rand.NewSource(seed*31 + int64(i)))}
			}
			return out
		},
		warmup: func() []string {
			r := rand.New(rand.NewSource(warmupSeed))
			out := make([]string, 16)
			for i := range out {
				out[i] = experiment.RandomQuery(r)
			}
			return out
		},
	}
}

// randomStream is the seeded experiment.RandomQuery mix, unchanged.
type randomStream struct {
	r *rand.Rand
}

func (s *randomStream) next() item { return item{sql: experiment.RandomQuery(s.r)} }
