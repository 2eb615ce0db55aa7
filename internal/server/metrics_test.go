package server

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/wal"
)

// syncBuf is a goroutine-safe strings.Builder for capturing slog output
// (handlers may log from the batcher goroutine).
type syncBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// newHTTPServer wraps an already-configured Server in a test listener —
// the metrics tests build their Server by hand to control Config.Obs.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestMetricsEndToEnd drives every request kind through an obs-enabled
// server and reads the whole story back off GET /metrics: request and
// stage histograms counted, the migrated debug trees rendered, and —
// with SlowRequest set below every request's latency — one structured
// slow-request log line per request.
func TestMetricsEndToEnd(t *testing.T) {
	var logBuf syncBuf
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{
		MaxBatch:    4,
		MaxLinger:   time.Millisecond,
		Obs:         reg,
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := newHTTPServer(t, srv)

	l, r := w.PairValues(0)
	if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, nil); code != http.StatusOK {
		t.Fatalf("score = %d", code)
	}
	vals, _ := w.RightRecordAt(0)
	id := addRecord(t, ts.URL, vals)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: vals, K: 3}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}
	if code := deleteRecord(t, ts.URL, id); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"request_score_ns_count 1",
		"request_resolve_ns_count 1",
		"request_ingest_ns_count 2",
		"stage_batch_wait_ns_count 1",
		"stage_batch_assemble_ns_count 1",
		"stage_score_batch_ns_count 1",
		"stage_probe_tokenize_ns_count 1",
		"stage_score_ns_count 1",
		"stage_topk_merge_ns_count 1",
		"slow_requests_total 4",
		// The debug trees cmd/serve used to publish directly on expvar,
		// flattened into Prometheus samples from the same registrations.
		"batcher_flushes 1",
		"served_pairs 1",
		"match_store_records_indexed 1",
		"match_store_resolves 1",
		"match_store_records_live 0",
		"match_shard_stats_partitioned 1",
		"partition_stats_enabled 1",
		"partition_stats_partitions 1",
		"partition_stats_census_tokens 0",
		"wal_stats_enabled 0",
		"snapshot_stats_enabled 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	logs := logBuf.String()
	if got := strings.Count(logs, `"msg":"slow request"`); got != 4 {
		t.Errorf("slow-request lines = %d, want 4:\n%s", got, logs)
	}
	for _, want := range []string{
		`"kind":"score"`, `"kind":"resolve"`, `"kind":"ingest"`,
		`"request_id":1`, `"total_ns":`, `"topk_merge_ns":`, `"score_batch_ns":`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("slow log missing %s:\n%s", want, logs)
		}
	}
}

// TestMetricsPartitionedScatter pins the scatter-stage story: resolves on
// a partitioned server time every partition leg, attribute the slowest
// one, and the partition debug trees render enabled.
func TestMetricsPartitionedScatter(t *testing.T) {
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Partitions: 2, Obs: reg})
	ts := newHTTPServer(t, srv)

	for i := 0; i < 6; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	probe, _ := w.RightRecordAt(1)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 3}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"stage_scatter_ns_count 1",
		"stage_scatter_slowest_ns_count 1",
		"stage_probe_tokenize_ns_count 1",
		"partition_stats_enabled 1",
		"partition_stats_partitions 2",
		"match_shard_stats_partitioned 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsDurableStages pins the durability stages: WAL append, fsync,
// store apply on the ingest path, snapshot cut/publish via the OnStage
// callback, and the wal/snapshot debug trees enabled.
func TestMetricsDurableStages(t *testing.T) {
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Obs: reg})
	ps, err := srv.OpenDurableStore(t.TempDir(), match.DurableOptions{
		Sync: wal.SyncAlways, SnapshotEvery: -1,
		OnStage: srv.ObserveStage,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	t.Cleanup(func() { ps.Close() })

	vals, _ := w.RightRecordAt(0)
	id := addRecord(t, ts.URL, vals)
	if code := deleteRecord(t, ts.URL, id); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/snapshot", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"stage_wal_append_ns_count 2",
		"stage_wal_fsync_ns_count 2",
		"stage_store_apply_ns_count 2",
		"stage_snapshot_cut_ns_count 1",
		"stage_snapshot_publish_ns_count 1",
		"wal_stats_enabled 1",
		"wal_stats_appends 2",
		"snapshot_stats_enabled 1",
		"snapshot_stats_snapshots 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsDurablePartitions pins the store trees on a durable
// 2-partition server (the ingest benchmark's layout): match_store counts
// every partition's records and wal_stats sums every partition's log.
func TestMetricsDurablePartitions(t *testing.T) {
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Partitions: 2, Obs: reg})
	ps, err := srv.OpenDurableStore(t.TempDir(), match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	t.Cleanup(func() { ps.Close() })

	for i := 0; i < 6; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	if code := deleteRecord(t, ts.URL, 4); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	if srv.Live() != 5 {
		t.Fatalf("Live() = %d, want 5", srv.Live())
	}
	if recs := ps.Stats().Records; recs[0] == 0 || recs[1] == 0 {
		t.Fatalf("records per partition %v: the test needs both partitions populated", recs)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"match_store_records_live 5",
		"match_store_records_indexed 6",
		"match_store_records_deleted 1",
		"wal_stats_enabled 1",
		"wal_stats_appends 7",
		"snapshot_stats_enabled 1",
		"partition_stats_durable 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsDisabled is the zero-overhead mode: no Config.Obs means no
// /metrics route, nil accessors, and every instrumentation entry point a
// safe no-op.
func TestMetricsDisabled(t *testing.T) {
	w, m := trainedModel(t, 7)
	srv := New(m, Config{})
	ts := newHTTPServer(t, srv)

	if srv.Metrics() != nil || srv.Registry() != nil {
		t.Fatal("obs-less server exposes metrics")
	}
	srv.ObserveStage(obs.StageSnapshotCut, time.Second) // must not panic

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without obs = %d, want 404", resp.StatusCode)
	}

	// The serving paths still work with nil traces threaded through.
	vals, _ := w.RightRecordAt(0)
	addRecord(t, ts.URL, vals)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: vals, K: 2}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}

	var nilM *Metrics
	if tr := nilM.begin(); tr != nil {
		t.Fatal("nil Metrics.begin returned a trace")
	}
	nilM.finish(reqScore, obs.NewTrace(1))
	nilM.observeStage(obs.StageScore, time.Second)
}

// TestReqKindString keeps the slow-log kind labels stable.
func TestReqKindString(t *testing.T) {
	for kind, want := range map[reqKind]string{
		reqScore: "score", reqResolve: "resolve", reqIngest: "ingest",
	} {
		if got := kind.String(); got != want {
			t.Errorf("reqKind %d = %q, want %q", kind, got, want)
		}
	}
}
