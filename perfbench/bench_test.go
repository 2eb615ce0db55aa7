package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second)
	b := poissonSchedule(7, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 500, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1000 expected arrivals: a Poisson count lies within ±4σ (±127).
	if n := len(a); n < 873 || n > 1127 {
		t.Fatalf("%d arrivals in 2 s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("schedule not increasing within the window at %d", i)
		}
	}
}

func TestStallChargedFromIntendedTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	// Ten requests 10 ms apart over one connection: the first stalls, so
	// the next ones queue behind it in the generator.
	sched := make([]time.Duration, 10)
	ops := make([]op, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
		ops[i] = op{kind: opScore, method: "GET", path: "/"}
	}
	w := runOpen(sched, ops, 1, httpExecutor(newClient(1), srv.URL))
	for i, o := range w.outcomes {
		if !o.ok() {
			t.Fatalf("request %d failed: %v", i, o.err)
		}
		// Request i cannot complete before the stall ends, and its latency
		// counts from its intended send time, not from when it was sent.
		if min := stall - sched[i]; o.latency() < min {
			t.Errorf("request %d: latency %s, want at least %s", i, o.latency(), min)
		}
		if i > 0 && o.sent-o.intended < stall/2-sched[i] {
			t.Errorf("request %d sent %s late; the stall should have held it", i, o.sent-o.intended)
		}
	}
	if late := w.lateness(); late[len(late)-1] < stall/2 {
		t.Errorf("max lateness %s, want the stall to show", late[len(late)-1])
	}
}

func TestDeleteMissFails(t *testing.T) {
	miss := outcome{kind: opDelete, status: http.StatusNotFound}
	if miss.ok() || !miss.missedDelete() {
		t.Error("a delete answered 404 must fail as a missed delete")
	}
	if hit := (outcome{kind: opDelete, status: http.StatusOK}); !hit.ok() || hit.missedDelete() {
		t.Error("a delete answered 200 must succeed")
	}
	if notFound := (outcome{kind: opResolve, status: http.StatusNotFound}); notFound.ok() || notFound.missedDelete() {
		t.Error("a resolve answered 404 is a failure, not a missed delete")
	}
	w := window{outcomes: []outcome{miss, {kind: opAdd, status: http.StatusOK}, {kind: opAdd, status: http.StatusTooManyRequests}}}
	if ok, failed, throttled := w.counts(); ok != 1 || failed != 2 || throttled != 1 {
		t.Errorf("counts = %d ok, %d failed, %d throttled; want 1, 2, 1", ok, failed, throttled)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var off *recorder
	if sp := off.end(off.begin("x", 1)); sp != (span{}) {
		t.Errorf("nil recorder produced span %+v", sp)
	}
	on := newRecorder()
	on.end(on.begin("x", 1))
	if len(on.spans) != 1 || on.spans[0].End < on.spans[0].Start {
		t.Errorf("recorder kept %+v", on.spans)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single sample p99 = %g", got)
	}
	// 100 samples: p99 has 1 beyond it, p95 has 5, p90 has 10 → p90.
	if p, v, beyond := tailPercentile(xs); p != 90 || v != 90 || beyond != 10 {
		t.Errorf("tail of 100 samples = p%g %g (%d beyond), want p90 90 (10 beyond)", p, v, beyond)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i)
	}
	if p, _, beyond := tailPercentile(big); p != 99 || beyond != 20 {
		t.Errorf("tail of 2000 samples = p%g (%d beyond), want p99 (20 beyond)", p, beyond)
	}
	if p, _, _ := tailPercentile(xs[:10]); p != 0 {
		t.Errorf("10 samples qualify p%g, want none", p)
	}
	if pctName(99.9) != "p999" || pctName(95) != "p95" {
		t.Errorf("pctName: %s %s", pctName(99.9), pctName(95))
	}
}

func TestMetricsDelta(t *testing.T) {
	before := `# TYPE batcher_flushes gauge
batcher_flushes 10
runtime_stats_gc_cycles 4
request_score_ns{quantile="0.5"} 1200
`
	after := `batcher_flushes 25
runtime_stats_gc_cycles 9
request_score_ns{quantile="0.5"} 1300
wal_stats_appends 3
`
	b, err := promSamples(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := promSamples(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := counterDelta(b, a)
	want := map[string]float64{"batcher_flushes": 15, "runtime_stats_gc_cycles": 5, `request_score_ns{quantile="0.5"}`: 100, "wal_stats_appends": 3}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	if _, err := promSamples(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("malformed sample accepted")
	}
}

func TestProcParsing(t *testing.T) {
	stat := "1234 (serve (x) y) S 1 1234 1234 0 -1 4194560 900 0 0 0 150 25 0 0 20 0 8 0 100 1000 200"
	us, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if us != 1_750_000 { // (150 + 25) ticks at 100 Hz
		t.Fatalf("cpu = %d µs, want 1750000", us)
	}
	if _, err := parseStatCPU("1234 (serve) S 1"); err == nil {
		t.Fatal("short stat accepted")
	}
	status := "Name:\tserve\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nCpus_allowed_list:\t1\n"
	kb, err := parseStatusKB(strings.NewReader(status), "VmHWM")
	if err != nil || kb != 2048 {
		t.Fatalf("VmHWM = %d, %v", kb, err)
	}
	if got := parseStatusField(strings.NewReader(status), "Cpus_allowed_list"); got != "1" {
		t.Fatalf("Cpus_allowed_list = %q", got)
	}
	if _, err := parseStatusKB(strings.NewReader(status), "VmRSS"); err == nil {
		t.Fatal("missing field accepted")
	}
	cpus, err := parseCPUList("0-2,5\n")
	if err != nil || !reflect.DeepEqual(cpus, []int{0, 1, 2, 5}) {
		t.Fatalf("cpu list = %v, %v", cpus, err)
	}
}

func TestBacklog(t *testing.T) {
	if backlogGrows([]int{0, 1, 0, 2, 1, 0, 1, 0, 2}, 4) {
		t.Error("a stable backlog reads as growing")
	}
	if !backlogGrows([]int{0, 2, 4, 8, 12, 16, 20, 24, 30}, 4) {
		t.Error("a rising backlog reads as stable")
	}
	if backlogGrows([]int{0, 50, 100}, 4) {
		t.Error("too few samples judged")
	}
	sched := []time.Duration{0, 10, 20, 30, 40}
	if b := backlogAt(sched, 25, 1); b != 2 {
		t.Errorf("backlogAt = %d, want 2 (3 due, 1 claimed)", b)
	}
	if b := backlogAt(sched, 25, 4); b != 0 {
		t.Errorf("backlogAt = %d, want 0 when senders are ahead", b)
	}
}

// TestMetricCatalogMatchesBenchmark pins the harness's metric names and
// units to the ones BENCHMARK.json declares.
func TestMetricCatalogMatchesBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(set string, declared []struct{ Name, Unit string }, have map[string]string) {
		got := map[string]string{}
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, have) {
			t.Errorf("%s: BENCHMARK.json declares %v, the harness reports %v", set, got, have)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
