package learnrisk

import (
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/partition"
)

// newPartitioned builds an in-memory partitioned store scoring through m.
func newPartitioned(t *testing.T, m *Model, parts, replicas int, cfg MatchConfig) *PartitionedMatchStore {
	t.Helper()
	ps, err := partition.New(len(m.Schema()), partition.Options{Partitions: parts, Replicas: replicas, Match: cfg, Scorer: m})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestResolvePartitionedMatchesFlat is the cross-layer equivalence proof
// on the real model: a partitioned store and a flat store fed the same
// interleaved adds and deletes must answer every probe with the identical
// ranked verdicts — IDs, order and score bits — including under an
// aggressive MaxBlockSize where the router's census decides the pruning
// (or, with one partition, the partition's own posting lists do).
func TestResolvePartitionedMatchesFlat(t *testing.T) {
	w, m := trainedModel(t)
	right := w.inner.Right.Records
	for _, tc := range []struct {
		parts int
		cfg   MatchConfig
	}{
		{parts: 1, cfg: MatchConfig{}},
		{parts: 1, cfg: MatchConfig{MaxBlockSize: 4}},
		{parts: 4, cfg: MatchConfig{}},
		{parts: 3, cfg: MatchConfig{MaxBlockSize: 4}},
	} {
		flat, err := m.NewMatchStore(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := newPartitioned(t, m, tc.parts, 2, tc.cfg)
		rng := rand.New(rand.NewSource(int64(tc.parts)))
		for i, r := range right {
			fid, err := flat.Add(r.Values)
			if err != nil {
				t.Fatal(err)
			}
			pid, err := ps.Add(r.Values)
			if err != nil {
				t.Fatal(err)
			}
			if fid != pid {
				t.Fatalf("parts=%d: record %d got flat ID %d, partitioned ID %d", tc.parts, i, fid, pid)
			}
			// Interleave deletes so tombstoned postings and census
			// decrements are part of what the equivalence covers.
			if i%7 == 3 {
				id := uint64(rng.Intn(i + 1))
				if _, err := ps.Delete(id); err != nil {
					t.Fatal(err)
				}
				flat.Delete(id)
			}
		}
		for li := 0; li < len(w.inner.Left.Records) && li < 20; li++ {
			probe := w.inner.Left.Records[li].Values
			want, err := m.Resolve(flat, probe, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.ResolvePartitionedTraced(ps, probe, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("parts=%d probe %d: got %d results, want %d\ngot:  %v\nwant: %v",
					tc.parts, li, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("parts=%d probe %d result %d diverged\ngot:  %+v\nwant: %+v",
						tc.parts, li, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResolveShardHonorsSkip pins the scorer leg the router calls: a skip
// list must remove exactly the skipped tokens' contribution, like local
// stop-token pruning would.
func TestResolveShardHonorsSkip(t *testing.T) {
	_, m, st, _ := resolveFixture(t)
	probe := make([]string, st.Arity())
	for i := range probe {
		probe[i] = "zz-unindexed"
	}
	// Build a skip list of every token the probe would use by pruning
	// everything: with all probe tokens skipped, no candidates survive.
	var skip []string
	if err := st.DistinctTokens(probe, func(tok string) { skip = append(skip, tok) }); err != nil {
		t.Fatal(err)
	}
	got, err := m.ResolveShard(st, probe, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	pruned, err := m.ResolveShard(st, probe, 5, skip)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 0 {
		t.Fatalf("fully skipped probe still returned %v", pruned)
	}
}

// TestResolvePartitionedValidation covers the partitioned facade's error
// paths.
func TestResolvePartitionedValidation(t *testing.T) {
	_, m := trainedModel(t)
	if _, err := m.ResolvePartitionedTraced(nil, []string{"x"}, 5, nil); err == nil {
		t.Error("nil store accepted")
	}
	ps := newPartitioned(t, m, 2, 1, MatchConfig{})
	bad := make([]string, ps.Arity()+1)
	if _, err := m.ResolvePartitionedTraced(ps, bad, 5, nil); err == nil {
		t.Error("arity-mismatched probe accepted")
	}
	wrongStore, err := match.New(ps.Arity()+1, match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolveShard(wrongStore, bad, 5, nil); err == nil {
		t.Error("arity-mismatched shard store accepted")
	}
}
