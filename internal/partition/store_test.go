package partition

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/wal"
)

// fakeScorer is a deterministic stand-in for the facade's model: the rank
// depends only on the (probe, candidate) values, is identical no matter
// which store holds the candidate, and is heavily quantized so ties — the
// case the ID tie-break must settle — are common.
type fakeScorer struct{}

func fakeRank(probe, vals []string) float64 {
	h := fnv.New64a()
	for _, v := range probe {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	for _, v := range vals {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return float64(h.Sum64()%5) / 5 // five rank levels => constant ties
}

func (fakeScorer) ResolveShard(st *match.Store, probe []string, k int, skip []string) ([]match.Scored, error) {
	var ps match.ProbeScratch
	ids, err := st.AppendCandidatesSkip(nil, probe, &ps, skip)
	if err != nil {
		return nil, err
	}
	var top match.TopK
	top.Reset(k)
	for _, id := range ids {
		vals, ok := st.Get(id)
		if !ok {
			continue
		}
		top.Offer(match.Scored{ID: id, Rank: fakeRank(probe, vals)})
	}
	return top.AppendSorted(nil), nil
}

// vocab is small on purpose: records collide on tokens constantly, so
// postings grow past aggressive MaxBlockSize bounds and the census pruning
// path is genuinely exercised.
var vocab = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}

func randValues(rng *rand.Rand, arity int) []string {
	vals := make([]string, arity)
	for i := range vals {
		n := 1 + rng.Intn(3)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		vals[i] = strings.Join(toks, " ")
	}
	return vals
}

// flatOracle resolves against a single flat store with the original
// (pruning-enabled) config — exactly the single-store semantics the
// partitioned path must reproduce bit for bit.
func flatOracle(t *testing.T, st *match.Store, probe []string, k int) []match.Scored {
	t.Helper()
	out, err := fakeScorer{}.ResolveShard(st, probe, k, nil)
	if err != nil {
		t.Fatalf("oracle resolve: %v", err)
	}
	return out
}

// TestFuzzPartitionedMatchesFlat is the equivalence oracle: a partitioned
// store and a flat store fed the identical interleaved add/delete sequence
// must answer every resolve with the identical ranked slice — same IDs,
// same rank bits, same order — across partition counts, replica counts and
// pruning configs (including an aggressive MaxBlockSize where the census
// verdict decides most probes — or, with one partition, the partition's
// own posting lists do, with no census at all).
func TestFuzzPartitionedMatchesFlat(t *testing.T) {
	const arity = 2
	cases := []struct {
		parts, replicas int
		cfg             match.Config
	}{
		{parts: 1, replicas: 1, cfg: match.Config{}},
		{parts: 1, replicas: 1, cfg: match.Config{MaxBlockSize: 3}},
		{parts: 2, replicas: 1, cfg: match.Config{}},
		{parts: 3, replicas: 2, cfg: match.Config{MaxBlockSize: 3}},
		{parts: 5, replicas: 1, cfg: match.Config{MaxBlockSize: 2, MinSharedTokens: 2}},
		{parts: 8, replicas: 3, cfg: match.Config{MaxBlockSize: -1}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("parts=%d/replicas=%d/maxblock=%d/minshared=%d",
			tc.parts, tc.replicas, tc.cfg.MaxBlockSize, tc.cfg.MinSharedTokens)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.parts)*31 + int64(tc.cfg.MaxBlockSize)))
			ps, err := New(arity, Options{Partitions: tc.parts, Replicas: tc.replicas, Match: tc.cfg, Scorer: fakeScorer{}})
			if err != nil {
				t.Fatal(err)
			}
			flat, err := match.New(arity, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// unpruned sees the same records and probes with pruning off:
			// the candidates the pruned stores returned below it show that
			// pruning fired.
			unpruned, err := match.New(arity, match.Config{MaxBlockSize: -1, MinSharedTokens: tc.cfg.MinSharedTokens})
			if err != nil {
				t.Fatal(err)
			}
			var ps0 match.ProbeScratch
			var live []uint64
			resolves := 0
			for op := 0; op < 1500; op++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					vals := randValues(rng, arity)
					gotID, err := ps.Add(vals)
					if err != nil {
						t.Fatalf("op %d: partitioned add: %v", op, err)
					}
					wantID, err := flat.Add(vals)
					if err != nil {
						t.Fatalf("op %d: flat add: %v", op, err)
					}
					unpruned.Add(vals)
					if gotID != wantID {
						t.Fatalf("op %d: partitioned assigned ID %d, flat assigned %d", op, gotID, wantID)
					}
					live = append(live, gotID)
				case r < 0.70 && len(live) > 0:
					i := rng.Intn(len(live))
					id := live[i]
					live = slices.Delete(live, i, i+1)
					got, err := ps.Delete(id)
					if err != nil {
						t.Fatalf("op %d: partitioned delete(%d): %v", op, id, err)
					}
					if want := flat.Delete(id); got != want {
						t.Fatalf("op %d: delete(%d): partitioned=%v flat=%v", op, id, got, want)
					}
					unpruned.Delete(id)
				default:
					probe := randValues(rng, arity)
					k := 1 + rng.Intn(5)
					got, err := ps.Resolve(probe, k)
					if err != nil {
						t.Fatalf("op %d: partitioned resolve: %v", op, err)
					}
					want := flatOracle(t, flat, probe, k)
					if _, err := unpruned.AppendCandidates(nil, probe, &ps0); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: resolve(%v, k=%d) diverged (%d live records)\npartitioned: %v\nflat:        %v",
							op, probe, k, len(live), got, want)
					}
					resolves++
				}
			}
			if resolves == 0 {
				t.Fatal("fuzz schedule never resolved")
			}
			if ps.Len() != flat.Len() {
				t.Fatalf("live counts diverged: partitioned %d, flat %d", ps.Len(), flat.Len())
			}
			// With the aggressive bounds pruning must actually have fired —
			// otherwise the pruning path was never under test. More than
			// one partition prunes through the census's skip list; one
			// partition keeps no census and prunes on its own postings.
			if tc.cfg.MaxBlockSize > 0 && tc.cfg.MaxBlockSize <= 3 {
				st := ps.Stats()
				if tc.parts > 1 && st.PrunedTokens == 0 {
					t.Fatal("aggressive MaxBlockSize never pruned a probe token; the census path was not exercised")
				}
				if tc.parts == 1 {
					if st.CensusTokens != 0 || st.PrunedTokens != 0 {
						t.Fatalf("one partition kept a census: %d tokens, %d pruned", st.CensusTokens, st.PrunedTokens)
					}
					if got, all := ps.MatchStats().Candidates, unpruned.Stats().Candidates; got >= all {
						t.Fatalf("the partition returned %d candidates, unpruned %d; its own pruning never fired", got, all)
					}
				}
			}
		})
	}
}

// TestConcurrentAddDeleteResolveSnapshot hammers a durable partitioned
// store from adders, deleters, resolvers and a snapshotter at once (run
// under -race via make race). Every resolve must succeed — a mid-load
// snapshot may slow probes, never drop them.
func TestConcurrentAddDeleteResolveSnapshot(t *testing.T) {
	ps, err := OpenDurable(t.TempDir(), 2, Options{
		Partitions: 4,
		Replicas:   2,
		Match:      match.Config{MaxBlockSize: 8},
		Scorer:     fakeScorer{},
		Durable:    match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		added     atomic.Int64
		resolved  atomic.Int64
		snapshots atomic.Int64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				if _, err := ps.Add(randValues(rng, 2)); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				added.Add(1)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			if hi := ps.NextID(); hi > 0 {
				if _, err := ps.Delete(uint64(rng.Int63n(int64(hi)))); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				if _, err := ps.Resolve(randValues(rng, 2), 5); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				resolved.Add(1)
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := ps.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			snapshots.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if added.Load() == 0 || resolved.Load() == 0 || snapshots.Load() == 0 {
		t.Fatalf("schedule too thin: %d adds, %d resolves, %d snapshots",
			added.Load(), resolved.Load(), snapshots.Load())
	}
	t.Logf("%d adds, %d resolves, %d snapshots, zero dropped", added.Load(), resolved.Load(), snapshots.Load())
}

// TestDurableRestart proves a partitioned durable store survives a clean
// shutdown: the records, the global ID allocator and the rebuilt census
// all come back, so the restarted store resolves — and prunes — exactly
// like the one that closed.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Partitions: 3,
		Match:      match.Config{MaxBlockSize: 3},
		Scorer:     fakeScorer{},
		Durable:    match.DurableOptions{Sync: wal.SyncNever},
	}
	ps, err := OpenDurable(dir, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Durable() {
		t.Fatal("OpenDurable built a non-durable store")
	}
	rng := rand.New(rand.NewSource(7))
	flat, _ := match.New(2, match.Config{MaxBlockSize: 3})
	for i := 0; i < 120; i++ {
		vals := randValues(rng, 2)
		if _, err := ps.Add(vals); err != nil {
			t.Fatal(err)
		}
		flat.Add(vals)
	}
	for id := uint64(0); id < 120; id += 3 {
		if _, err := ps.Delete(id); err != nil {
			t.Fatal(err)
		}
		flat.Delete(id)
	}
	probe := []string{"alpha beta", "gamma"}
	before, err := ps.Resolve(probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	nextID := ps.NextID()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// A different partition count must be refused, not repartitioned.
	if _, err := OpenDurable(dir, 2, Options{Partitions: 5, Match: opts.Match, Scorer: fakeScorer{}}); err == nil {
		t.Fatal("reopening 3 partitions as 5 was accepted")
	}

	ps2, err := OpenDurable(dir, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if got := ps2.NextID(); got != nextID {
		t.Errorf("restart NextID = %d, want %d", got, nextID)
	}
	if got, want := ps2.Len(), flat.Len(); got != want {
		t.Errorf("restart Len = %d, want %d", got, want)
	}
	after, err := ps2.Resolve(probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Errorf("restart changed the resolve answer\nbefore: %v\nafter:  %v", before, after)
	}
	if want := flatOracle(t, flat, probe, 10); !slices.Equal(after, want) {
		t.Errorf("restarted store diverged from the flat oracle\ngot:  %v\nwant: %v", after, want)
	}
	// Fresh adds must not collide with replayed IDs.
	id, err := ps2.Add([]string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if id != nextID {
		t.Errorf("post-restart add assigned %d, want %d", id, nextID)
	}
}

// TestOpenDurableRefusesFlatDir: a data dir a flat match.OpenDurable store
// wrote is refused with the fix in the error, and after that fix — its
// files moved into part-000 — it opens as one partition with the same
// records under the same IDs.
func TestOpenDurableRefusesFlatDir(t *testing.T) {
	dir := t.TempDir()
	dopts := match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: 40}
	flat, err := match.OpenDurable(dir, 2, match.Config{}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if _, err := flat.Add(randValues(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < 100; id += 7 {
		if _, err := flat.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64][]string{}
	flat.Range(func(id uint64, values []string) bool {
		want[id] = values
		return true
	})
	nextID := flat.NextID()
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}

	opts := Options{Partitions: 1, Scorer: fakeScorer{}, Durable: dopts}
	_, err = OpenDurable(dir, 2, opts)
	if err == nil || !strings.Contains(err.Error(), "part-000") {
		t.Fatalf("flat data dir open = %v, want a refusal naming part-000", err)
	}
	part := filepath.Join(dir, partDirName(0))
	if err := os.Mkdir(part, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			if err := os.Rename(filepath.Join(dir, e.Name()), filepath.Join(part, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	ps, err := OpenDurable(dir, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if ps.Len() != len(want) || ps.NextID() != nextID {
		t.Fatalf("migrated store: %d records, next ID %d; want %d, %d", ps.Len(), ps.NextID(), len(want), nextID)
	}
	for id, vals := range want {
		if got, ok := ps.Get(id); !ok || !slices.Equal(got, vals) {
			t.Fatalf("record %d after the move = %v (found %v), want %v", id, got, ok, vals)
		}
	}
}

func TestJumpHash(t *testing.T) {
	// Every key lands in range, and the distribution over 10k keys is not
	// degenerate.
	counts := make([]int, 7)
	for id := uint64(0); id < 10000; id++ {
		b := jumpHash(id, len(counts))
		if b < 0 || b >= len(counts) {
			t.Fatalf("jumpHash(%d, %d) = %d out of range", id, len(counts), b)
		}
		counts[b]++
	}
	for b, n := range counts {
		if n < 1000 || n > 2000 {
			t.Errorf("bucket %d got %d of 10000 keys (want ~1428)", b, n)
		}
	}
	// Consistency: growing 7 -> 8 buckets only moves keys into the new
	// bucket, never between old ones.
	for id := uint64(0); id < 10000; id++ {
		b7, b8 := jumpHash(id, 7), jumpHash(id, 8)
		if b8 != b7 && b8 != 7 {
			t.Fatalf("key %d moved from bucket %d to old bucket %d when growing", id, b7, b8)
		}
	}
}

func TestReplicaPick(t *testing.T) {
	g := newReplicaSet(&Local{}, 3)
	seen := make([]int, 3)
	for seq := uint64(0); seq < 3000; seq++ {
		r := g.pick(seq)
		if r < 0 || r >= 3 {
			t.Fatalf("pick returned replica %d of 3", r)
		}
		seen[r]++
	}
	for r, n := range seen {
		if n == 0 {
			t.Errorf("replica %d never picked", r)
		}
	}
	// A loaded replica loses the two-choice comparison whenever it is one
	// of the candidates.
	g.pending[0].Store(1000)
	hot := 0
	for seq := uint64(0); seq < 1000; seq++ {
		if g.pick(seq) == 0 {
			hot++
		}
	}
	if hot > 0 {
		t.Errorf("replica with 1000 pending picked %d of 1000 times; p2c should always prefer an idle one", hot)
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := New(2, Options{Partitions: 2}); err == nil {
		t.Error("New without a Scorer accepted")
	}
	ps, err := New(2, Options{Partitions: 2, Scorer: fakeScorer{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Add([]string{"one value only"}); !errors.Is(err, match.ErrArity) {
		t.Errorf("arity-mismatched add: err = %v, want ErrArity", err)
	}
	if _, err := ps.Resolve([]string{"too", "many", "values"}, 5); !errors.Is(err, match.ErrArity) {
		t.Errorf("arity-mismatched probe: err = %v, want ErrArity", err)
	}
	if _, err := ps.Resolve([]string{"a", "b"}, 0); err == nil {
		t.Error("k=0 resolve accepted")
	}
	if _, err := ps.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("in-memory snapshot: err = %v, want ErrNotDurable", err)
	}
	if ps.Durable() {
		t.Error("in-memory store reports durable")
	}
	if got, ok := ps.Get(42); ok {
		t.Errorf("Get on an empty store returned %v", got)
	}
	if ok, err := ps.Delete(42); ok || err != nil {
		t.Errorf("Delete of unknown ID = (%v, %v), want (false, nil)", ok, err)
	}
	if err := ps.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
}

func TestStatsAndShardStats(t *testing.T) {
	ps, err := New(1, Options{Partitions: 4, Replicas: 2, Scorer: fakeScorer{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ps.Add([]string{"alpha beta gamma"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ps.Resolve([]string{"alpha"}, 3); err != nil {
		t.Fatal(err)
	}
	st := ps.Stats()
	if st.Partitions != 4 || st.Replicas != 2 {
		t.Errorf("Stats layout = %d partitions x %d replicas, want 4x2", st.Partitions, st.Replicas)
	}
	total := 0
	for _, n := range st.Records {
		total += n
	}
	if total != 64 {
		t.Errorf("per-partition records sum to %d, want 64", total)
	}
	if st.Probes != 1 {
		t.Errorf("Probes = %d, want 1", st.Probes)
	}
	if st.CensusTokens != 3 {
		t.Errorf("CensusTokens = %d, want 3 (alpha, beta, gamma)", st.CensusTokens)
	}
	if got := len(ps.PartitionStats()); got != 4 {
		t.Errorf("PartitionStats returned %d entries, want 4", got)
	}
	shard := ps.PartitionShardStats()
	if len(shard) != 4 {
		t.Fatalf("PartitionShardStats returned %d partitions, want 4", len(shard))
	}
	recs := 0
	for _, stats := range shard {
		for _, sh := range stats {
			recs += sh.Records
		}
	}
	if recs != 64 {
		t.Errorf("shard-stat records sum to %d, want 64", recs)
	}
}
