package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
)

// batchDiff reports the first cell where b differs from rows, comparing
// kinds and payloads bit for bit, or "" when they are equal.
func batchDiff(b *colbatch.Batch, rows []sqltypes.Row) string {
	if b.Len() != len(rows) {
		return fmt.Sprintf("%d rows, want %d", b.Len(), len(rows))
	}
	for i, row := range rows {
		for c, want := range row {
			got := b.Value(i, c)
			same := got.Kind() == want.Kind()
			if same && got.Kind() == sqltypes.KindFloat {
				same = math.Float64bits(got.Float()) == math.Float64bits(want.Float())
			} else if same {
				same = got == want
			}
			if !same {
				return fmt.Sprintf("cell (%d,%d) = %#v, want %#v", i, c, got, want)
			}
		}
	}
	return ""
}

// TestColumnsMatchesRows drives random Append and UpdateAt sequences and
// checks after every step that Columns row-equals a fresh decomposition of
// the stored rows, that an unmutated table hands out the same snapshot, and
// that a snapshot taken earlier still holds the rows it was taken at.
func TestColumnsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable("t", pagesSchema())
	if d := batchDiff(tab.Columns(), nil); d != "" {
		t.Fatalf("empty table: %s", d)
	}
	var held *colbatch.Batch
	var heldRows []sqltypes.Row
	for step := 0; step < 400; step++ {
		n := tab.RowCount()
		if n == 0 || rng.Intn(3) == 0 {
			batch := make([]sqltypes.Row, 1+rng.Intn(5))
			for i := range batch {
				batch[i] = sqltypes.Row{randomValue(rng, 0), randomValue(rng, 1), randomValue(rng, 2)}
			}
			if err := tab.Append(batch...); err != nil {
				t.Fatal(err)
			}
		} else {
			col := rng.Intn(3)
			if err := tab.UpdateAt(rng.Intn(n), col, randomValue(rng, col)); err != nil {
				t.Fatal(err)
			}
		}
		rows := tab.Snapshot()
		got := tab.Columns()
		if d := batchDiff(got, rows); d != "" {
			t.Fatalf("step %d: Columns: %s", step, d)
		}
		if d := batchDiff(got, colbatch.FromRelation(&sqltypes.Relation{Schema: tab.Schema(), Rows: rows}).ToRelation().Rows); d != "" {
			t.Fatalf("step %d: fresh FromRelation: %s", step, d)
		}
		if tab.Columns() != got {
			t.Fatalf("step %d: unmutated table rebuilt its snapshot", step)
		}
		if held != nil {
			if d := batchDiff(held, heldRows); d != "" {
				t.Fatalf("step %d: an earlier snapshot changed under later mutations: %s", step, d)
			}
		}
		if rng.Intn(10) == 0 {
			held, heldRows = got, rows
		}
	}
}

// TestColumnsConcurrentWithUpdates runs Columns readers against UpdateAt
// writers (under -race in CI). A reader whose Version did not move across
// Snapshot and Columns must get a snapshot equal to those rows: a stale
// snapshot surviving a mutation would fail here.
func TestColumnsConcurrentWithUpdates(t *testing.T) {
	tab := NewTable("t", pagesSchema())
	rng := rand.New(rand.NewSource(11))
	rows := make([]sqltypes.Row, 100)
	for i := range rows {
		rows[i] = sqltypes.Row{randomValue(rng, 0), randomValue(rng, 1), randomValue(rng, 2)}
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				col := rng.Intn(3)
				if err := tab.UpdateAt(rng.Intn(len(rows)), col, randomValue(rng, col)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tab.Version()
				snap := tab.Snapshot()
				cols := tab.Columns()
				if tab.Version() != v {
					continue
				}
				if d := batchDiff(cols, snap); d != "" {
					t.Errorf("version %d: %s", v, d)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if d := batchDiff(tab.Columns(), tab.Snapshot()); d != "" {
		t.Fatalf("final snapshot: %s", d)
	}
}
