package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// TestExplainTableRing records more winners than the table keeps and checks
// that it retains exactly the newest explainTableCapacity of them, returns
// them oldest first, and that Latest still finds the newest entry for a
// query text while evicted texts are gone.
func TestExplainTableRing(t *testing.T) {
	const extra = 10
	et := NewExplainTable()
	record := func(i int) {
		et.Record(&GlobalPlan{Query: fmt.Sprintf("q%d", i), TotalEstMS: float64(i)}, simclock.Time(i))
	}
	for i := 0; i < explainTableCapacity+extra; i++ {
		record(i)
	}
	if et.Len() != explainTableCapacity {
		t.Fatalf("Len = %d, want %d", et.Len(), explainTableCapacity)
	}
	entries := et.Entries()
	if len(entries) != explainTableCapacity {
		t.Fatalf("Entries has %d, want %d", len(entries), explainTableCapacity)
	}
	for i, e := range entries {
		if want := extra + i; e.TotalEstMS != float64(want) || e.Query != fmt.Sprintf("q%d", want) {
			t.Fatalf("entry %d = %s est %v, want q%d (oldest first)", i, e.Query, e.TotalEstMS, want)
		}
	}
	for i := 0; i < extra; i++ {
		if e := et.Latest(fmt.Sprintf("q%d", i)); e != nil {
			t.Fatalf("evicted q%d still found: %+v", i, e)
		}
	}
	newest := explainTableCapacity + extra - 1
	if e := et.Latest(fmt.Sprintf("q%d", newest)); e == nil || e.TotalEstMS != float64(newest) {
		t.Fatalf("Latest(q%d) = %+v", newest, e)
	}

	// A text recorded again resolves to its newer entry, which overwrote the
	// oldest slot of the full ring.
	et.Record(&GlobalPlan{Query: fmt.Sprintf("q%d", extra+5), TotalEstMS: -1}, 0)
	if e := et.Latest(fmt.Sprintf("q%d", extra+5)); e == nil || e.TotalEstMS != -1 {
		t.Fatalf("Latest after re-record = %+v, want the newer entry", e)
	}
	entries = et.Entries()
	if first, last := entries[0], entries[len(entries)-1]; first.Query != fmt.Sprintf("q%d", extra+1) || last.TotalEstMS != -1 {
		t.Fatalf("after wrap: first %s, last est %v", first.Query, last.TotalEstMS)
	}
	if dump := et.String(); !strings.HasPrefix(dump, fmt.Sprintf("[%s] q%d ", simclock.Time(extra+1), extra+1)) {
		t.Fatalf("String must start with the oldest entry: %.80q", dump)
	}
}
