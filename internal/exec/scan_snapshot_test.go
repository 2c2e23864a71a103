package exec

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// TestSeqScanSnapshotDiesWithTable scans a table through ExecuteVectorized,
// drops every reference to it and requires the table to be collected: the
// columnar scan snapshot belongs to the table, so nothing process-wide may
// keep a scanned table alive.
func TestSeqScanSnapshotDiesWithTable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		tab := storage.NewTable("t", sqltypes.NewSchema(
			sqltypes.Column{Name: "a", Type: sqltypes.KindInt},
			sqltypes.Column{Name: "s", Type: sqltypes.KindString},
		))
		for i := 0; i < 100; i++ {
			if err := tab.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x")}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.SetFinalizer(tab, func(*storage.Table) { close(collected) })
		out, err := ExecuteVectorized(&SeqScan{Table: tab, As: "t"}, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 100 {
			t.Fatalf("scanned %d rows, want 100", out.Len())
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a scanned table stayed reachable after every reference to it was dropped")
}
