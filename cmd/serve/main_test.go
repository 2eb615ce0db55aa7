package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeAdder records the values it accepts and can be armed to fail from a
// given record on.
type fakeAdder struct {
	added  [][]string
	failAt int // -1 = never fail
}

func (a *fakeAdder) AddRecord(values []string) (uint64, error) {
	if a.failAt >= 0 && len(a.added) == a.failAt {
		return 0, errors.New("store full")
	}
	a.added = append(a.added, append([]string(nil), values...))
	return uint64(len(a.added)), nil
}

func writeRecordsCSV(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.csv")
	content := "id,entity_id,title,year\n"
	for i := 0; i < n; i++ {
		content += fmt.Sprintf("r%d,e%d,title %d,%d\n", i, i, i, 1990+i)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWarmLoadRecords(t *testing.T) {
	path := writeRecordsCSV(t, 10)
	dst := &fakeAdder{failAt: -1}
	n, err := warmLoadRecords(context.Background(), dst, 2, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || len(dst.added) != 10 {
		t.Fatalf("loaded %d records, store saw %d, want 10", n, len(dst.added))
	}
	if dst.added[3][0] != "title 3" || dst.added[3][1] != "1993" {
		t.Errorf("record 3 values = %v", dst.added[3])
	}
}

// TestWarmLoadRecordsPartialFailure: a mid-file store failure reports the
// count actually applied, and the error names the failing record.
func TestWarmLoadRecordsPartialFailure(t *testing.T) {
	path := writeRecordsCSV(t, 10)
	dst := &fakeAdder{failAt: 4}
	n, err := warmLoadRecords(context.Background(), dst, 2, path)
	if err == nil {
		t.Fatal("expected a mid-file failure")
	}
	if n != 4 || len(dst.added) != 4 {
		t.Fatalf("reported %d loaded, store holds %d, want 4", n, len(dst.added))
	}
	if want := `record 4 (id "r4")`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should name %s", err, want)
	}
}

// TestWarmLoadRecordsCancellation: a canceled context stops the row loop
// promptly and surfaces context.Canceled with the partial count.
func TestWarmLoadRecordsCancellation(t *testing.T) {
	path := writeRecordsCSV(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	dst := &fakeAdder{failAt: -1}
	cancel()
	n, err := warmLoadRecords(ctx, dst, 2, path)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 || len(dst.added) != 0 {
		t.Fatalf("canceled-before-start load applied %d records", n)
	}

	// Cancel partway: the adder trips the cancel after a few records.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tripping := &cancelingAdder{inner: &fakeAdder{failAt: -1}, cancel: cancel2, after: 7}
	n, err = warmLoadRecords(ctx2, tripping, 2, path)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-file cancel: err = %v, want context.Canceled", err)
	}
	if n != 7 {
		t.Fatalf("mid-file cancel applied %d records, want 7", n)
	}
}

func TestWarmLoadRecordsFileErrors(t *testing.T) {
	if _, err := warmLoadRecords(context.Background(), &fakeAdder{failAt: -1}, 2, filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("id,entity_id,a\nr1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := warmLoadRecords(context.Background(), &fakeAdder{failAt: -1}, 1, bad)
	if err == nil || n != 0 {
		t.Errorf("malformed row: n=%d err=%v", n, err)
	}
}

// cancelingAdder cancels the context after accepting a fixed number of
// records, simulating SIGINT mid-load.
type cancelingAdder struct {
	inner  *fakeAdder
	cancel context.CancelFunc
	after  int
}

func (a *cancelingAdder) AddRecord(values []string) (uint64, error) {
	id, err := a.inner.AddRecord(values)
	if len(a.inner.added) == a.after {
		a.cancel()
	}
	return id, err
}

// TestConfigLinger: -max-linger 0 is greedy, so it must reach
// server.Config as a negative MaxLinger (the config's zero would take the
// 2ms default); other values pass through unchanged.
func TestConfigLinger(t *testing.T) {
	if got := configLinger(0); got >= 0 {
		t.Errorf("-max-linger 0 -> MaxLinger %s, want negative (greedy)", got)
	}
	for _, d := range []time.Duration{2 * time.Millisecond, time.Hour, -time.Millisecond} {
		if got := configLinger(d); got != d {
			t.Errorf("-max-linger %s -> MaxLinger %s, want it unchanged", d, got)
		}
	}
}
