package learnrisk

import (
	"fmt"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
)

// The partitioned resolve path: a PartitionedMatchStore consistent-hashes
// records across N independent match partitions and answers Resolve by
// scatter-gather — every partition ranks the probe concurrently on the
// pooled zero-allocation scoring path, and the per-partition top-k heaps
// merge into one order-stable result that is bit-identical (order
// included) to Model.Resolve against a single flat store over the same
// records. See internal/partition for the routing design (global ID
// allocation, jump consistent hashing, the global token census that keeps
// stop-token pruning exact).

// PartitionedMatchStore is the partitioned online record store (an alias,
// see MatchConfig for why). Safe for concurrent use.
type PartitionedMatchStore = partition.Store

// ScoredMatch is one ranked resolve entry: the record ID and its rank (the
// classifier probability on the model's scoring path). An alias of the
// internal heap's element so partition scorers and the facade share it.
type ScoredMatch = match.Scored

// OpenDurablePartitionedMatchStore opens (creating if needed) a durable
// partitioned store rooted at dir: each partition persists into its own
// part-NNN subdirectory (WAL + snapshots), partitions replay concurrently
// at open, and the partition count is fixed at the dir's creation.
// progress, when non-nil, receives per-partition replay progress.
func (m *Model) OpenDurablePartitionedMatchStore(dir string, partitions, replicas int, cfg MatchConfig, opts DurableMatchOptions, progress func(part int, phase string, done, total int)) (*PartitionedMatchStore, error) {
	return partition.OpenDurable(dir, len(m.attrs), partition.Options{
		Partitions: partitions,
		Replicas:   replicas,
		Match:      cfg,
		Scorer:     m,
		Durable:    opts,
		Progress:   progress,
	})
}

// ResolveShard ranks one probe against a single partition's store,
// honoring the router's skip list (globally pruned stop tokens, sorted
// ascending): up to k entries, Prob descending, ties toward the lower
// record ID. It is the per-partition leg of the scatter-gather resolve —
// Model implements partition.Scorer through it. Candidates are ranked by
// classifier probability alone (no rule firings or risk assessment; the
// caller builds verdicts for the merged winners), and the pooled resolve
// scratch keeps the path allocation-free in steady state apart from the
// result slice.
func (m *Model) ResolveShard(st *MatchStore, probe []string, k int, skip []string) ([]ScoredMatch, error) {
	if err := m.checkResolve(st, probe, k); err != nil {
		return nil, err
	}
	s := m.acquireResolveScratch()
	m.rankInto(st, probe, k, skip, s, nil)
	out := make([]ScoredMatch, len(s.sorted))
	for i, e := range s.sorted {
		out[i] = ScoredMatch{ID: s.kept[e.ID], Rank: e.Rank}
	}
	m.releaseResolveScratch(s)
	return out, nil
}

// ResolvePartitionedTraced finds the k best-scoring matches for one probe
// among a partitioned store's live records: the router prunes stop tokens
// from its global census (a single partition prunes locally), every
// partition ranks the probe concurrently through ResolveShard, and the
// merged top k is re-scored into full verdicts. The ranked slice is
// bit-identical to Model.Resolve against one flat store holding the same
// records (the cross-layer equivalence test pins this). Safe for
// concurrent use, including with Add/Delete on the store.
//
// The trace records request-scoped stage timing: the router records census
// pruning, the scatter (with slowest-partition attribution) and the merge;
// the winner re-scoring here lands on StageScore. A nil trace records
// nothing.
func (m *Model) ResolvePartitionedTraced(ps *PartitionedMatchStore, probe []string, k int, tr *Trace) ([]MatchResult, error) {
	if ps == nil {
		return nil, fmt.Errorf("learnrisk: ResolvePartitionedTraced needs a partitioned store")
	}
	if ps.Arity() != len(m.attrs) {
		return nil, fmt.Errorf("learnrisk: partitioned store arity %d does not match the model schema's %d", ps.Arity(), len(m.attrs))
	}
	ranked, err := ps.ResolveTraced(probe, k, tr)
	if err != nil {
		return nil, err
	}
	// Re-score the winners into full verdicts: k is small and scorePair is
	// deterministic, so the Prob of each re-scored pair is bit-identical to
	// the rank the merge ordered it by.
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	s := m.acquireScratch()
	out := make([]MatchResult, 0, len(ranked))
	for _, e := range ranked {
		vals, ok := ps.Get(e.ID)
		if !ok {
			continue // deleted between merge and fetch; the verdict is gone with it
		}
		out = append(out, MatchResult{ID: e.ID, Score: m.scorePair(Pair{Left: probe, Right: vals}, s)})
	}
	m.pool.Put(s)
	if tr != nil {
		tr.Observe(obs.StageScore, t0)
	}
	return out, nil
}
