package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	learnrisk "repro"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/wal"
)

// newDurableServer stands the HTTP stack up around a durable record store
// of parts partitions rooted at dir, the way cmd/serve -data-dir does: New,
// the pending gate closed, the store opened and installed.
func newDurableServer(t *testing.T, dir string, parts int) (*learnrisk.Workload, *Server, *httptest.Server, *partition.Store) {
	t.Helper()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Partitions: parts})
	srv.SetDurablePending()
	ps, err := srv.OpenDurableStore(dir, match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		ps.Close()
	})
	return w, srv, ts, ps
}

// TestDurableServerRestartServesIdenticalResolves is the acceptance check:
// populate a durable server, capture its resolve answers, tear the whole
// stack down (clean shutdown), stand a new one up on the same data dir with
// no re-ingest, and demand byte-identical resolve responses.
func TestDurableServerRestartServesIdenticalResolves(t *testing.T) {
	dir := t.TempDir()
	w, srv1, ts1, ps1 := newDurableServer(t, dir, 1)

	n := w.NumRightRecords()
	if n > 50 {
		n = 50
	}
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		vals, _ := w.RightRecordAt(i)
		ids[i] = addRecord(t, ts1.URL, vals)
	}
	// A mid-stream snapshot (admin endpoint) plus post-snapshot tail ops:
	// the restart must replay both layers.
	var snap SnapshotResponse
	if code := postJSON(t, ts1.URL+"/v1/snapshot", struct{}{}, &snap); code != http.StatusOK {
		t.Fatalf("POST /v1/snapshot = %d", code)
	}
	if snap.Records != n {
		t.Fatalf("snapshot captured %d records, want %d", snap.Records, n)
	}
	for _, id := range ids[:5] {
		if code := deleteRecord(t, ts1.URL, id); code != http.StatusOK {
			t.Fatalf("DELETE %d = %d", id, code)
		}
	}
	probes := make([][]string, 4)
	for i := range probes {
		probes[i], _ = w.RightRecordAt(5 + i*3)
	}
	want := make([]ResolveResponse, len(probes))
	for i, p := range probes {
		if code := postJSON(t, ts1.URL+"/v1/resolve", ResolveRequest{Values: p, K: 5}, &want[i]); code != http.StatusOK {
			t.Fatalf("resolve %d = %d", i, code)
		}
	}
	liveBefore := srv1.Live()

	// Clean shutdown: drain HTTP, stop the batcher, close the store (which
	// rolls the tail into a final snapshot).
	ts1.Close()
	srv1.Close()
	if err := ps1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process on the same data dir, zero re-ingest.
	_, srv2, ts2, ps2 := newDurableServer(t, dir, 1)
	if rs := ps2.DurableStats()[0].Replay; rs.TailFrames != 0 {
		t.Errorf("clean restart replayed %d tail frames, want 0 (%+v)", rs.TailFrames, rs)
	}
	if srv2.Live() != liveBefore {
		t.Fatalf("restart serves %d live records, want %d", srv2.Live(), liveBefore)
	}
	for i, p := range probes {
		var got ResolveResponse
		if code := postJSON(t, ts2.URL+"/v1/resolve", ResolveRequest{Values: p, K: 5}, &got); code != http.StatusOK {
			t.Fatalf("restarted resolve %d = %d", i, code)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("probe %d resolves differently after restart:\n  before %+v\n  after  %+v", i, want[i], got)
		}
	}
	// Deleted records stayed deleted.
	if code := deleteRecord(t, ts2.URL, ids[0]); code != http.StatusNotFound {
		t.Errorf("DELETE of a pre-restart-deleted record = %d, want 404", code)
	}
	// And the restarted server keeps accepting durable writes.
	vals, _ := w.RightRecordAt(0)
	if id := addRecord(t, ts2.URL, vals); id == ids[0] {
		t.Errorf("restarted server reused record id %d", id)
	}
}

// TestDurablePendingGate: while the data dir is still replaying in the
// background, mutations and snapshot triggers answer 503 (ErrStoreLoading)
// and scoring keeps working; installing the replayed store opens the gate.
func TestDurablePendingGate(t *testing.T) {
	w, _, srv, ts := newTestServer(t, Config{})
	srv.SetDurablePending()

	var out map[string]any
	vals, _ := w.RightRecordAt(0)
	if code := postJSON(t, ts.URL+"/v1/records", RecordRequest{Values: vals}, &out); code != http.StatusServiceUnavailable {
		t.Errorf("add while replaying = %d, want 503", code)
	}
	if code := deleteRecord(t, ts.URL, 0); code != http.StatusServiceUnavailable {
		t.Errorf("delete while replaying = %d, want 503", code)
	}
	if code := postJSON(t, ts.URL+"/v1/snapshot", struct{}{}, &out); code != http.StatusServiceUnavailable {
		t.Errorf("snapshot while replaying = %d, want 503", code)
	}
	// Scoring does not depend on the record store and stays up.
	l, r := w.PairValues(0)
	if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, &out); code != http.StatusOK {
		t.Errorf("score while replaying = %d, want 200", code)
	}

	ps, err := srv.OpenDurableStore(t.TempDir(), match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var rec RecordResponse
	if code := postJSON(t, ts.URL+"/v1/records", RecordRequest{Values: vals}, &rec); code != http.StatusOK {
		t.Fatalf("add after install = %d, want 200", code)
	}
	if ps.Len() != 1 || ps.DurableStats()[0].WALAppends != 1 {
		t.Errorf("record did not land in the durable store (live=%d)", ps.Len())
	}
}

// TestSnapshotEndpointWithoutDurableStore: an in-memory server has nothing
// to snapshot — 409, not a silent no-op.
func TestSnapshotEndpointWithoutDurableStore(t *testing.T) {
	_, _, _, ts := newTestServer(t, Config{})
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/snapshot", struct{}{}, &out); code != http.StatusConflict {
		t.Errorf("snapshot without durable store = %d, want 409", code)
	}
}

// TestDurableRefusesSchemaSwap: with a durable store installed (or still
// replaying), a forced schema-changing swap is refused — the data dir's
// records are shaped for the served schema.
func TestDurableRefusesSchemaSwap(t *testing.T) {
	_, srv, _, _ := newDurableServer(t, t.TempDir(), 1)
	_, ab := trainedModelAB(t)
	if err := srv.Swap(ab, true); !errors.Is(err, ErrDurableSchemaSwap) {
		t.Fatalf("forced cross-schema swap with durable store = %v, want ErrDurableSchemaSwap", err)
	}
	// Same-fingerprint swaps (retrained artifact, same schema) still work.
	if err := srv.Swap(srv.Model(), false); err != nil {
		t.Fatalf("same-fingerprint swap with durable store: %v", err)
	}

	// The pending window refuses too: the replay about to finish would
	// install records for the old schema into a server serving the new one.
	_, m2 := trainedModel(t, 7)
	srv2 := New(m2, Config{})
	defer srv2.Close()
	srv2.SetDurablePending()
	if err := srv2.Swap(ab, true); !errors.Is(err, ErrDurableSchemaSwap) {
		t.Fatalf("forced cross-schema swap while pending = %v, want ErrDurableSchemaSwap", err)
	}
}

// TestDurableStoreFollowsHotSwap: the durable store's partitions score
// through the served model, so after a same-schema hot swap a resolve
// ranks and scores with the new model — exactly Model.Resolve of the new
// model on a bare store holding the same records.
func TestDurableStoreFollowsHotSwap(t *testing.T) {
	w, srv, ts, _ := newDurableServer(t, t.TempDir(), 1)
	_, next := trainedModel(t, 11)
	if next.Fingerprint() != srv.Model().Fingerprint() {
		t.Fatal("retrained model changed the schema fingerprint")
	}
	st, err := next.NewMatchStore(learnrisk.MatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
		st.Add(vals)
	}
	if err := srv.Swap(next, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		probe, _ := w.RightRecordAt(i * 5)
		var got ResolveResponse
		if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &got); code != http.StatusOK {
			t.Fatalf("resolve %d = %d", i, code)
		}
		if want := wantMatches(t, next, st, probe, 5); !reflect.DeepEqual(got.Matches, want) {
			t.Fatalf("probe %d after the swap\ngot:  %+v\nwant: %+v", i, got.Matches, want)
		}
	}
}
