// Vectorized-engine integration tests: the columnar executor is the only
// production engine, and its virtual outcome must equal the row-at-a-time
// engine's. The row federation no longer exists to run side by side, so the
// row engine's outcome is a golden recorded at commit d07df23 (whose default
// was the row engine) in testdata/vectorized_golden.json: rows, routes,
// fragment times, merge times, queue waits, span trees, admission counters
// and the virtual clock, with and without an admission gate. Only real
// wall-clock cost may differ.
package fedqcc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	fedqcc "repro"
	"repro/internal/sqltypes"
)

const vectorizedGoldenPath = "testdata/vectorized_golden.json"

// queryOutcome is one query's virtual outcome. Times are IEEE-754 bit
// patterns, so the comparison is exact.
type queryOutcome struct {
	SQL           string            `json:"sql"`
	Rows          int               `json:"rows"`
	Fingerprint   string            `json:"fingerprint"`
	ResponseTime  string            `json:"response_time_bits"`
	FirstRowTime  string            `json:"first_row_time_bits"`
	MergeTime     string            `json:"merge_time_bits"`
	QueueWait     string            `json:"queue_wait_bits"`
	Class         string            `json:"class"`
	Route         string            `json:"route"`
	FragmentTimes map[string]string `json:"fragment_time_bits"`
	Tree          string            `json:"tree"`
}

// runOutcome is one workload's outcome: every query plus the final clock and
// the admission controller's counters.
type runOutcome struct {
	Queries   []queryOutcome `json:"queries"`
	Clock     string         `json:"clock_bits"`
	Admission string         `json:"admission_stats"`
}

type goldenFile struct {
	Source string                `json:"source"`
	Runs   map[string]runOutcome `json:"runs"`
}

func timeBits(t fedqcc.Time) string {
	return fmt.Sprintf("%#016x", math.Float64bits(float64(t)))
}

// rowFingerprint hashes a relation's schema and cells; floats enter by their
// bit pattern, so NaN == NaN and -0.0 != +0.0.
func rowFingerprint(rel *fedqcc.Relation) string {
	h := sha256.New()
	h.Write([]byte(rel.Schema.String()))
	var buf [9]byte
	for _, row := range rel.Rows {
		h.Write([]byte{'\n'})
		for _, v := range row {
			buf[0] = byte(v.Kind())
			switch v.Kind() {
			case sqltypes.KindFloat:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.Float()))
			case sqltypes.KindString:
				binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.Str())))
			default:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int()))
			}
			h.Write(buf[:])
			if v.Kind() == sqltypes.KindString {
				h.Write([]byte(v.Str()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordSoakRun executes sqls on a fresh soak federation after applying
// configure; see recordRun.
func recordSoakRun(t *testing.T, sqls []string, configure func(*fedqcc.Federation)) runOutcome {
	t.Helper()
	fed := soakFederation(t)
	configure(fed)
	return recordRun(t, fed, sqls)
}

// recordRun executes sqls sequentially on fed with telemetry on and records
// the virtual outcome.
func recordRun(t *testing.T, fed *fedqcc.Federation, sqls []string) runOutcome {
	t.Helper()
	fed.EnableTelemetry()
	var run runOutcome
	for i, q := range sqls {
		res, err := fed.Query(q)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		g := queryOutcome{
			SQL:           q,
			Rows:          len(res.Rows.Rows),
			Fingerprint:   rowFingerprint(res.Rows),
			ResponseTime:  timeBits(res.ResponseTime),
			FirstRowTime:  timeBits(res.FirstRowTime),
			MergeTime:     timeBits(res.MergeTime),
			QueueWait:     timeBits(res.QueueWait),
			Class:         res.AdmissionClass,
			Route:         fmt.Sprint(res.Route),
			FragmentTimes: make(map[string]string, len(res.FragmentTimes)),
		}
		for id, ft := range res.FragmentTimes {
			g.FragmentTimes[id] = timeBits(ft)
		}
		if tr := fed.Telemetry().Tracer().Last(); tr != nil {
			g.Tree = tr.Tree()
		}
		run.Queries = append(run.Queries, g)
	}
	run.Clock = timeBits(fed.Now())
	run.Admission = fmt.Sprintf("%+v", fed.Admission().Stats())
	return run
}

// goldenAdmissionPolicy is the gate the admission workload runs under: it
// classifies queries by calibrated cost, so any engine-induced cost
// perturbation surfaces as a class, queue-wait or stats diff.
var goldenAdmissionPolicy = fedqcc.AdmissionPolicy{
	MaxConcurrent: 2,
	Classes: []fedqcc.AdmissionClassConfig{
		{Name: fedqcc.ClassInteractive, Priority: 10, CeilingMS: 500, MaxConcurrent: 2, QueueDeadline: 1e6},
		{Name: fedqcc.ClassBatch, QueueDeadline: 1e6},
	},
}

func loadVectorizedGolden(t *testing.T, name string) runOutcome {
	t.Helper()
	data, err := os.ReadFile(vectorizedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", vectorizedGoldenPath, err)
	}
	run, ok := f.Runs[name]
	if !ok {
		t.Fatalf("%s has no run %q", vectorizedGoldenPath, name)
	}
	return run
}

// requireOutcome requires a run to reproduce the wanted outcome exactly.
func requireOutcome(t *testing.T, want, got runOutcome) {
	t.Helper()
	if len(want.Queries) != len(got.Queries) {
		t.Fatalf("%d queries recorded, %d run", len(want.Queries), len(got.Queries))
	}
	for i := range want.Queries {
		w, g := want.Queries[i], got.Queries[i]
		if w.SQL != g.SQL {
			t.Fatalf("query %d: recorded %q, ran %q: the soak workload changed", i, w.SQL, g.SQL)
		}
		requireSameRows(t, i, w, g)
		for _, f := range []struct{ name, want, got string }{
			{"response", w.ResponseTime, g.ResponseTime},
			{"first row", w.FirstRowTime, g.FirstRowTime},
			{"merge", w.MergeTime, g.MergeTime},
			{"queue wait", w.QueueWait, g.QueueWait},
			{"class", w.Class, g.Class},
			{"route", w.Route, g.Route},
			{"fragment times", sortedPairs(w.FragmentTimes), sortedPairs(g.FragmentTimes)},
		} {
			if f.want != f.got {
				t.Errorf("query %d (%s): %s %s, want %s", i, w.SQL, f.name, f.got, f.want)
			}
		}
		if w.Tree != g.Tree {
			t.Errorf("query %d (%s): span tree diverged:\n--- want ---\n%s--- got ---\n%s", i, w.SQL, w.Tree, g.Tree)
		}
	}
	if want.Clock != got.Clock {
		t.Errorf("final clock %s, want %s: different virtual time was charged", got.Clock, want.Clock)
	}
	if want.Admission != got.Admission {
		t.Errorf("admission stats diverged:\nwant: %s\ngot:  %s", want.Admission, got.Admission)
	}
}

// requireSameRows requires query i of two runs to return the same rows.
func requireSameRows(t *testing.T, i int, want, got queryOutcome) {
	t.Helper()
	if want.Rows != got.Rows || want.Fingerprint != got.Fingerprint {
		t.Errorf("query %d (%s): %d rows with fingerprint %s, want %d with %s",
			i, want.SQL, got.Rows, got.Fingerprint, want.Rows, want.Fingerprint)
	}
}

// cellsBitIdentical compares two values bit for bit: floats by their IEEE-754
// payload (so NaN == NaN and -0.0 != +0.0), everything else by struct
// equality. Stricter than the rounding comparison in package experiment.
func cellsBitIdentical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

func sortedPairs(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + m[k] + " "
	}
	return s
}

// TestVectorizedIdentityStreaming runs the soak workload on the default
// (vectorized) path and requires the row engine's recorded virtual outcome
// bit for bit.
func TestVectorizedIdentityStreaming(t *testing.T) {
	got := recordSoakRun(t, soakStatements(16), func(*fedqcc.Federation) {})
	requireOutcome(t, loadVectorizedGolden(t, "streaming"), got)
}

// TestVectorizedIdentityUnderAdmission is the same check through an active
// admission policy (classification, slot accounting, per-class counters).
func TestVectorizedIdentityUnderAdmission(t *testing.T) {
	got := recordSoakRun(t, soakStatements(12), func(fed *fedqcc.Federation) {
		fed.Admission().SetPolicy(goldenAdmissionPolicy)
	})
	requireOutcome(t, loadVectorizedGolden(t, "admission"), got)
}
