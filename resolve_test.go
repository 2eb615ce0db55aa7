package learnrisk

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dataset"
	"repro/internal/match"
)

// resolveFixture trains one small model and fills a match store with the
// workload's right-table records, returning the store and the ID of each
// right record (ids[i] is right record i).
func resolveFixture(t *testing.T) (*Workload, *Model, *match.Store, []uint64) {
	t.Helper()
	w, m := trainedModel(t)
	st, err := m.NewMatchStore(match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(w.inner.Right.Records))
	for i, r := range w.inner.Right.Records {
		id, err := st.Add(r.Values)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return w, m, st, ids
}

// TestResolveMatchesBatchPipeline pins Resolve against the batch oracle
// built from the public pieces it composes: blocking.Candidates for the
// candidate set, Score for every candidate, a full sort for the top-k.
func TestResolveMatchesBatchPipeline(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	cfg := st.Config()
	const k = 5

	right := w.inner.Right
	schema := right.Schema
	for li := 0; li < len(w.inner.Left.Records) && li < 25; li++ {
		probe := w.inner.Left.Records[li].Values
		got, err := m.Resolve(st, probe, k)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle: batch blocking + per-pair Score + sort by (Prob desc,
		// ID asc), truncated to k.
		left := &dataset.Table{Schema: schema, Records: []dataset.Record{{ID: "probe", Values: probe}}}
		pairs := blocking.Candidates(left, right, blocking.Config{
			Attrs: cfg.Attrs, MinSharedTokens: cfg.MinSharedTokens, MaxBlockSize: cfg.MaxBlockSize,
		})
		want := make([]MatchResult, 0, len(pairs))
		for _, p := range pairs {
			sc, err := m.Score(Pair{Left: probe, Right: right.Records[p.Right].Values})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, MatchResult{ID: ids[p.Right], Score: sc})
		}
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].Score.Prob != want[b].Score.Prob {
				return want[a].Score.Prob > want[b].Score.Prob
			}
			return want[a].ID < want[b].ID
		})
		if len(want) > k {
			want = want[:k]
		}

		if len(got) != len(want) {
			t.Fatalf("probe %d: got %d results, want %d", li, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				t.Fatalf("probe %d result %d: got {%d %+v}, want {%d %+v}",
					li, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

// TestResolveAfterDeletes checks that deleted records drop out of resolve
// results while everything else keeps its verdict.
func TestResolveAfterDeletes(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	probe := w.inner.Left.Records[0].Values
	before, err := m.Resolve(st, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Skip("probe 0 has no candidates in this fixture")
	}
	if !st.Delete(before[0].ID) {
		t.Fatal("deleting the top match failed")
	}
	after, err := m.Resolve(st, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.ID == before[0].ID {
			t.Fatalf("deleted record %d still resolves", before[0].ID)
		}
	}
	_ = ids
}

// TestResolveValidation covers the error surface: nil store, bad k, probe
// arity (wrapping ErrPairArity), and a store bound to a different arity.
func TestResolveValidation(t *testing.T) {
	_, m, st, _ := resolveFixture(t)
	probe := make([]string, len(m.Schema()))
	if _, err := m.Resolve(nil, probe, 3); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := m.Resolve(st, probe, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := m.Resolve(st, probe[:1], 3); !errors.Is(err, ErrPairArity) {
		t.Errorf("short probe err = %v, want ErrPairArity", err)
	}
	other, err := match.New(len(m.Schema())+1, match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(other, probe, 3); err == nil {
		t.Error("arity-mismatched store accepted")
	}
}

// TestResolveConcurrent runs Resolve from many goroutines while the store
// mutates underneath — the pooled-scratch contract under -race (make race
// wires it in).
func TestResolveConcurrent(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				probe := w.inner.Left.Records[rng.Intn(len(w.inner.Left.Records))].Values
				res, err := m.Resolve(st, probe, 3)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(res); j++ {
					prev, cur := res[j-1], res[j]
					if cur.Score.Prob > prev.Score.Prob {
						t.Errorf("results unsorted: %+v before %+v", prev, cur)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 150; i++ {
			switch rng.Intn(2) {
			case 0:
				st.Delete(ids[rng.Intn(len(ids))])
			case 1:
				r := w.inner.Right.Records[rng.Intn(len(w.inner.Right.Records))]
				if _, err := st.Add(r.Values); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
