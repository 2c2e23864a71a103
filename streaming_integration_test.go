package fedqcc_test

import (
	"math"
	"testing"

	fedqcc "repro"
)

// slowLinkFederation builds a single-server federation over a
// bandwidth-limited, jitter-free link, so a large result streams in many
// batches. Scale 10 gives 10k-row large tables.
func slowLinkFederation(tb testing.TB) *fedqcc.Federation {
	tb.Helper()
	b := fedqcc.NewBuilder(7).
		AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{LatencyMS: 20, BandwidthKBps: 50})
	for _, spec := range fedqcc.StandardSchema(10) {
		b.AddGeneratedTable("S1", spec)
	}
	fed, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return fed
}

// TestStreamingBatchSpansSumToFragmentTime checks the trace-level acceptance
// invariant: on a multi-batch streamed fragment the wrapper.execute span's
// children (network.send, remote.exec, one network.recv per batch) sum
// EXACTLY to the fragment's response time, and the streaming-only metric
// series appear.
func TestStreamingBatchSpansSumToFragmentTime(t *testing.T) {
	fed := slowLinkFederation(t)
	tel := fed.EnableTelemetry()

	res, err := fed.Query("SELECT l.l_orderkey, l.l_price FROM lineitem AS l")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstRowTime <= 0 {
		t.Fatalf("first-row time: %v", res.FirstRowTime)
	}

	tr := tel.Tracer().Last()
	if tr == nil || !tr.Done() || tr.Err() != "" {
		t.Fatalf("trace incomplete: %+v", tr)
	}
	type wexecSum struct {
		dur      float64
		children float64
		recvs    int
	}
	var wexec *wexecSum
	for _, c := range tr.Root.Children() {
		if c.Name() != "fragment" {
			continue
		}
		for _, cc := range c.Children() {
			if cc.Name() != "wrapper.execute" {
				continue
			}
			w := &wexecSum{dur: float64(cc.Dur())}
			for _, b := range cc.Children() {
				w.children += float64(b.Dur())
				if b.Name() == "network.recv" {
					w.recvs++
				}
			}
			wexec = w
		}
	}
	if wexec == nil {
		t.Fatalf("no wrapper.execute span in trace:\n%s", tr.Tree())
	}
	if wexec.recvs < 2 {
		t.Fatalf("10k-row scan must stream multiple batches, saw %d recv spans:\n%s", wexec.recvs, tr.Tree())
	}
	if math.Abs(wexec.children-wexec.dur) > 1e-6 {
		t.Fatalf("per-batch spans sum to %.9f, fragment response %.9f", wexec.children, wexec.dur)
	}

	if h := tel.Metrics().HistogramOf("query.first_row_ms", ""); h == nil || h.Count() < 1 {
		t.Fatal("query.first_row_ms must record on streamed queries")
	}
	if h := tel.Metrics().HistogramOf("network.batch_bytes", "S1"); h == nil || h.Count() < 2 {
		t.Fatal("network.batch_bytes must record one sample per streamed batch")
	}
}
