package optimizer

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/simclock"
)

// ExplainEntry is one row of the explain table: the winner global plan and
// its estimated costs, as DB2 II stores after compilation (§1 runtime phase
// step 1). Only the winner is stored — which is precisely why QCC needs the
// simulated federated system to reconstruct alternatives (§4.2).
type ExplainEntry struct {
	// Query is the statement text.
	Query string
	// At is the compilation time.
	At simclock.Time
	// RouteKey is the fragment→server assignment.
	RouteKey string
	// FragmentServers maps fragment ID to chosen server.
	FragmentServers map[string]string
	// FragmentSigs maps fragment ID to the chosen physical plan signature.
	FragmentSigs map[string]string
	// FragmentTables maps fragment ID to the nicknames it covers.
	FragmentTables map[string][]string
	// FragmentEstMS maps fragment ID to its calibrated estimate.
	FragmentEstMS map[string]float64
	// TotalEstMS is the global calibrated estimate.
	TotalEstMS float64
}

// explainTableCapacity bounds the entries an ExplainTable keeps, the same
// bound the integrator's patroller log applies by default: once full, each
// new winner overwrites the oldest, so a long-running federation's table
// stays a fixed size instead of growing with every compile.
const explainTableCapacity = 4096

// ExplainTable stores the most recent compilation winners. It is safe for
// concurrent use.
type ExplainTable struct {
	mu sync.RWMutex
	// entries is a ring once it reaches explainTableCapacity; oldest
	// indexes its oldest entry (always 0 before the ring is full).
	entries []ExplainEntry
	oldest  int
}

// NewExplainTable returns an empty table.
func NewExplainTable() *ExplainTable { return &ExplainTable{} }

// Record stores the winner of a compilation.
func (t *ExplainTable) Record(gp *GlobalPlan, at simclock.Time) {
	e := ExplainEntry{
		Query:           gp.Query,
		At:              at,
		RouteKey:        gp.RouteKey(),
		FragmentServers: map[string]string{},
		FragmentSigs:    map[string]string{},
		FragmentEstMS:   map[string]float64{},
		FragmentTables:  map[string][]string{},
		TotalEstMS:      gp.TotalEstMS,
	}
	for _, f := range gp.Fragments {
		e.FragmentServers[f.Spec.ID] = f.ServerID
		e.FragmentSigs[f.Spec.ID] = f.Plan.Signature
		e.FragmentEstMS[f.Spec.ID] = f.Plan.Est.TotalMS
		var tables []string
		for _, tr := range f.Spec.Tables {
			tables = append(tables, tr.Name)
		}
		e.FragmentTables[f.Spec.ID] = tables
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) < explainTableCapacity {
		t.entries = append(t.entries, e)
		return
	}
	t.entries[t.oldest] = e
	t.oldest = (t.oldest + 1) % len(t.entries)
}

// at returns the i-th retained entry, oldest first; callers hold mu.
func (t *ExplainTable) at(i int) *ExplainEntry {
	return &t.entries[(t.oldest+i)%len(t.entries)]
}

// Entries returns a snapshot of the retained entries, oldest first.
func (t *ExplainTable) Entries() []ExplainEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ExplainEntry, 0, len(t.entries))
	out = append(out, t.entries[t.oldest:]...)
	return append(out, t.entries[:t.oldest]...)
}

// Latest returns the most recent retained entry for the given query text,
// or nil.
func (t *ExplainTable) Latest(query string) *ExplainEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(t.entries) - 1; i >= 0; i-- {
		if e := t.at(i); e.Query == query {
			cp := *e
			return &cp
		}
	}
	return nil
}

// Len returns the number of retained entries.
func (t *ExplainTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// String renders a compact dump for diagnostics.
func (t *ExplainTable) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	for i := range t.entries {
		e := t.at(i)
		fmt.Fprintf(&b, "[%s] %s -> %s est=%.2fms\n", e.At, e.Query, e.RouteKey, e.TotalEstMS)
	}
	return b.String()
}
