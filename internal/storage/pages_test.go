package storage

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// recountPages is the page count by a full pass over the rows: the
// definition the running byte total must always agree with.
func recountPages(rows []sqltypes.Row) int {
	bytes := 0
	for _, r := range rows {
		bytes += r.ByteSize()
	}
	p := bytes / PageSize
	if p == 0 && len(rows) > 0 {
		p = 1
	}
	return p
}

func pagesSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "s", Type: sqltypes.KindString},
		sqltypes.Column{Table: "t", Name: "x", Type: sqltypes.KindFloat},
	)
}

// randomValue draws a value for column col: strings of varying length,
// and NULL often enough that cells change to and from NULL.
func randomValue(rng *rand.Rand, col int) sqltypes.Value {
	if rng.Intn(4) == 0 {
		return sqltypes.Null
	}
	switch col {
	case 0:
		return sqltypes.NewInt(rng.Int63n(1000))
	case 1:
		return sqltypes.NewString(strings.Repeat("x", rng.Intn(300)))
	default:
		return sqltypes.NewFloat(rng.Float64())
	}
}

// TestPagesMatchesRecount drives random Append and UpdateAt sequences and
// checks after every step that Pages, now answered from a running byte
// total, equals a recount over the stored rows.
func TestPagesMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("t", pagesSchema())
		if _, err := tab.CreateIndex("t_s", "s", IndexHash); err != nil {
			t.Fatal(err)
		}
		if got := tab.Pages(); got != 0 {
			t.Fatalf("seed %d: empty table has %d pages", seed, got)
		}
		for step := 0; step < 300; step++ {
			n := tab.RowCount()
			if n == 0 || rng.Intn(3) == 0 {
				rows := make([]sqltypes.Row, 1+rng.Intn(20))
				for i := range rows {
					rows[i] = sqltypes.Row{randomValue(rng, 0), randomValue(rng, 1), randomValue(rng, 2)}
				}
				if err := tab.Append(rows...); err != nil {
					t.Fatal(err)
				}
			} else {
				col := rng.Intn(3)
				if err := tab.UpdateAt(rng.Intn(n), col, randomValue(rng, col)); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := tab.Pages(), recountPages(tab.Snapshot()); got != want {
				t.Fatalf("seed %d step %d: Pages = %d, recount = %d", seed, step, got, want)
			}
		}
	}
}

// TestPagesRejectedMutationsLeaveTotal checks that a rejected Append or
// UpdateAt leaves the byte total untouched.
func TestPagesRejectedMutationsLeaveTotal(t *testing.T) {
	tab := NewTable("t", pagesSchema())
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString(strings.Repeat("y", 5000)), sqltypes.Null}
	if err := tab.Append(row); err != nil {
		t.Fatal(err)
	}
	before := tab.Pages()
	if err := tab.Append(row, sqltypes.Row{sqltypes.NewInt(2)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tab.UpdateAt(5, 1, sqltypes.Null); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if err := tab.UpdateAt(0, 7, sqltypes.Null); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if got, want := tab.Pages(), recountPages(tab.Snapshot()); got != before || got != want {
		t.Fatalf("Pages = %d, before = %d, recount = %d", got, before, want)
	}
}

// TestPagesConcurrentWithUpdates runs Pages readers against UpdateAt
// writers (under -race in CI) and checks the final count against a
// recount.
func TestPagesConcurrentWithUpdates(t *testing.T) {
	tab := NewTable("t", pagesSchema())
	rng := rand.New(rand.NewSource(7))
	rows := make([]sqltypes.Row, 200)
	for i := range rows {
		rows[i] = sqltypes.Row{randomValue(rng, 0), randomValue(rng, 1), randomValue(rng, 2)}
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				col := rng.Intn(3)
				if err := tab.UpdateAt(rng.Intn(len(rows)), col, randomValue(rng, col)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
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
				if p := tab.Pages(); p < 1 {
					t.Errorf("non-empty table reports %d pages", p)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := tab.Pages(), recountPages(tab.Snapshot()); got != want {
		t.Fatalf("Pages = %d, recount = %d", got, want)
	}
}
