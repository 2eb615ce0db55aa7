package partition

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures New and OpenDurable.
type Options struct {
	// Partitions is the number of independent match partitions (default 1).
	// For a durable store the count is fixed at creation: consistent
	// hashing routes record IDs to partitions, so reopening a data dir with
	// a different count would look records up in the wrong partition —
	// OpenDurable refuses the mismatch.
	Partitions int
	// Replicas is the read-replica fan-out per partition (default 1):
	// Resolve and Get pick a replica by power-of-two-choices on in-flight
	// counts. In-process replicas share the partition's store, so this is
	// the routing seam for the HTTP-partition follow-on, not a data copy.
	Replicas int
	// Match is the blocking configuration. MaxBlockSize is interpreted
	// globally: with more than one partition, partitions run with local
	// pruning disabled and the store's token census applies the bound
	// across all partitions, so pruning verdicts match a single flat store
	// over the same records. One partition holds every record, so its own
	// posting lists carry the exact live counts: it prunes locally, as a
	// flat store does, and no census is kept.
	Match match.Config
	// Scorer ranks probes per partition (required).
	Scorer Scorer
	// Durable configures each partition's durability layer (OpenDurable
	// only). Its Progress hook is superseded by the partition-aware one
	// below.
	Durable match.DurableOptions
	// Progress, when set, receives per-partition replay progress during
	// OpenDurable (phase is "snapshot" or "log"; total is -1 while
	// unknown).
	Progress func(part int, phase string, done, total int)
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	return o
}

// censusShards is the token census's lock striping (power of two).
const censusShards = 64

// censusShard is one stripe of the global token census: token → live
// record count across all partitions. The census is what lets stop-token
// pruning stay exact under partitioning — each partition's posting lists
// see only a slice of a token's records, so the local live counts a flat
// store prunes on do not exist anywhere but here.
type censusShard struct {
	mu sync.RWMutex
	m  map[string]int
}

// Store is the partitioned online match store: records consistent-hash
// across partitions, probes scatter to every partition concurrently and
// gather through one order-stable top-k merge. All methods are safe for
// concurrent use. Under serial mutations the resolve results are
// bit-identical to a single flat store's (the fuzzed oracle test); under
// concurrent mutation the census may briefly lag a partition's state, which
// can only shift pruning verdicts — the same heuristic drift a flat
// store's own racing live counts exhibit.
type Store struct {
	arity    int
	maxBlock int // resolved global stop-token bound (<= 0 disables)
	parts    []*replicaSet
	nextID   atomic.Uint64

	// tok is an always-empty store used purely as the tokenizer: census
	// updates and probe pruning must use the exact tokenization the
	// partitions index by, and going through a match.Store guarantees that
	// even when partitions are remote.
	tok *Local

	// census is nil with one partition: the partition prunes on its own
	// posting lists, which already count every record.
	seed   maphash.Seed
	census []censusShard

	pickSeq atomic.Uint64
	probes  atomic.Int64
	pruned  atomic.Int64
}

// replicaSet is one partition's replicas plus their in-flight counters
// (the power-of-two-choices signal).
type replicaSet struct {
	reps    []Partition
	pending []atomic.Int64
}

// primary is the replica mutations go to. In-process replicas share the
// store, so writing through the primary writes through all of them; remote
// replicas make replication the transport's concern.
func (g *replicaSet) primary() Partition { return g.reps[0] }

// pick chooses a read replica: two pseudo-random candidates, the one with
// fewer requests in flight wins (SNIPPETS' "greedy beats optimal" — no
// load statistics service needed, just two counters).
//
//vetkit:hotpath
func (g *replicaSet) pick(seq uint64) int {
	n := len(g.reps)
	if n == 1 {
		return 0
	}
	h := splitmix64(seq)
	a := int(h % uint64(n))
	b := int((h >> 32) % uint64(n))
	if a == b {
		b++
		if b == n {
			b = 0
		}
	}
	if g.pending[b].Load() < g.pending[a].Load() {
		return b
	}
	return a
}

// splitmix64 is the SplitMix64 finalizer: a cheap stateless bit mixer for
// replica picks (full-period, no locks, no math/rand state).
//
//vetkit:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jumpHash is Lamping & Veach's jump consistent hash: O(ln buckets), no
// tables, and monotone under growth (raising the bucket count only moves
// the minimal fraction of keys), which is what a future repartitioning
// wants from the router.
//
//vetkit:hotpath
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// partitionOf routes a record ID to its owning partition.
//
//vetkit:hotpath
func (s *Store) partitionOf(id uint64) int { return jumpHash(id, len(s.parts)) }

// New builds an in-memory partitioned store for records of the given
// arity. With more than one partition, partition stores are created with
// local stop-token pruning disabled — the Store's census applies
// Options.Match.MaxBlockSize globally instead.
func New(arity int, o Options) (*Store, error) {
	o = o.withDefaults()
	if o.Scorer == nil {
		return nil, errors.New("partition: Options.Scorer is required")
	}
	s, partCfg, err := newRouter(arity, o)
	if err != nil {
		return nil, err
	}
	for i := 0; i < o.Partitions; i++ {
		st, err := match.New(arity, partCfg)
		if err != nil {
			return nil, err
		}
		s.parts[i] = newReplicaSet(NewLocal(st, o.Scorer), o.Replicas)
	}
	return s, nil
}

// newRouter builds the Store shell shared by New and OpenDurable: the
// tokenizer store (which also resolves the config defaults — MaxBlockSize
// in particular), the census stripes when there is more than one
// partition, and the empty partition table. It returns the per-partition
// config: the resolved one, with local pruning disabled wherever the
// census prunes instead.
func newRouter(arity int, o Options) (*Store, match.Config, error) {
	tokStore, err := match.New(arity, o.Match)
	if err != nil {
		return nil, match.Config{}, err
	}
	resolved := tokStore.Config()
	partCfg := resolved
	s := &Store{
		arity:    arity,
		maxBlock: resolved.MaxBlockSize,
		parts:    make([]*replicaSet, o.Partitions),
		tok:      NewLocal(tokStore, o.Scorer),
		seed:     maphash.MakeSeed(),
	}
	if o.Partitions > 1 {
		partCfg.MaxBlockSize = -1
		s.census = make([]censusShard, censusShards)
		for i := range s.census {
			s.census[i].m = make(map[string]int)
		}
	}
	return s, partCfg, nil
}

func newReplicaSet(p Partition, replicas int) *replicaSet {
	g := &replicaSet{
		reps:    make([]Partition, replicas),
		pending: make([]atomic.Int64, replicas),
	}
	for i := range g.reps {
		g.reps[i] = p
	}
	return g
}

// Arity returns the schema arity records and probes must carry.
func (s *Store) Arity() int { return s.arity }

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.parts) }

// Replicas returns the per-partition replica fan-out.
func (s *Store) Replicas() int { return len(s.parts[0].reps) }

// Durable reports whether the partitions persist their mutations (built by
// OpenDurable).
func (s *Store) Durable() bool {
	l, ok := s.parts[0].primary().(*Local)
	return ok && l.Durable() != nil
}

// Partition returns one partition (read-side introspection: stats,
// expvars, tests).
func (s *Store) Partition(i int) Partition { return s.parts[i].primary() }

// NextID reports the next record ID the store would assign.
func (s *Store) NextID() uint64 { return s.nextID.Load() }

// Len sums the partitions' live record counts.
func (s *Store) Len() int {
	n := 0
	for _, g := range s.parts {
		n += g.primary().Len()
	}
	return n
}

// Add assigns the next global record ID, routes the record to the
// partition the ID hashes to, and indexes its tokens in the census. The
// ID sequence is exactly the one a flat store would have assigned, so
// ranking tie-breaks are partition-invariant.
func (s *Store) Add(values []string) (uint64, error) {
	return s.AddTraced(values, nil)
}

// AddTraced is Add carrying a request-scoped trace into the owning
// partition's durability path (WAL append/fsync/apply stages). A nil
// trace records nothing.
func (s *Store) AddTraced(values []string, tr *obs.Trace) (uint64, error) {
	if len(values) != s.arity {
		return 0, fmt.Errorf("partition: record has %d values, store schema has %d: %w", len(values), s.arity, match.ErrArity)
	}
	id := s.nextID.Add(1) - 1
	p := s.parts[s.partitionOf(id)].primary()
	var err error
	if tm, ok := p.(TraceMutator); ok {
		err = tm.AddAtTraced(id, values, tr)
	} else {
		err = p.AddAt(id, values)
	}
	if err != nil {
		return 0, err
	}
	s.censusAdd(values)
	return id, nil
}

// Delete routes the delete to the record's owning partition and, when it
// lands, removes the record's tokens from the census. False means the ID
// is unknown or already deleted.
func (s *Store) Delete(id uint64) (bool, error) {
	return s.DeleteTraced(id, nil)
}

// DeleteTraced is Delete carrying a request-scoped trace (see AddTraced).
func (s *Store) DeleteTraced(id uint64, tr *obs.Trace) (bool, error) {
	p := s.parts[s.partitionOf(id)].primary()
	vals, ok := p.Get(id)
	if !ok {
		return false, nil
	}
	var err error
	if tm, tok := p.(TraceMutator); tok {
		ok, err = tm.DeleteTraced(id, tr)
	} else {
		ok, err = p.Delete(id)
	}
	if err != nil || !ok {
		// A concurrent delete won the race (ok=false): it also owns the
		// census decrement.
		return ok, err
	}
	s.censusRemove(vals)
	return true, nil
}

// Get fetches a record through a picked replica of its owning partition.
func (s *Store) Get(id uint64) ([]string, bool) {
	g := s.parts[s.partitionOf(id)]
	r := g.pick(s.pickSeq.Add(1))
	g.pending[r].Add(1)
	vals, ok := g.reps[r].Get(id)
	g.pending[r].Add(-1)
	return vals, ok
}

// Resolve is the scatter-gather probe: the census decides the probe's
// pruned stop tokens once, every partition ranks the probe concurrently
// (through a picked replica) with that verdict applied, and the
// per-partition top-k lists merge through one bounded heap. Exactness of
// the merge: any record in the global top k is necessarily in its own
// partition's top k (the ranking is a total order — Prob descending, ID
// ascending), so merging the partitions' k-bounded lists loses nothing.
func (s *Store) Resolve(probe []string, k int) ([]match.Scored, error) {
	return s.ResolveTraced(probe, k, nil)
}

// ResolveTraced is Resolve with request-scoped stage timing: census
// pruning on StageProbeTokenize, the scatter wall time on StageScatter
// with per-leg durations feeding the slowest-partition attribution
// (StageScatterSlowest + Trace.Slowest), and the bounded-heap merge on
// StageTopKMerge. A nil trace records nothing and takes no timestamps.
func (s *Store) ResolveTraced(probe []string, k int, tr *obs.Trace) ([]match.Scored, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: Resolve needs k > 0, got %d", k)
	}
	if len(probe) != s.arity {
		return nil, fmt.Errorf("partition: probe has %d values, store schema has %d: %w", len(probe), s.arity, match.ErrArity)
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	skip, err := s.appendSkip(nil, probe)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageProbeTokenize, now.Sub(t0))
		t0 = now
	}
	n := len(s.parts)
	per := make([][]match.Scored, n)
	errs := make([]error, n)
	// Workers == partitions: each leg is one independent index probe plus
	// scoring; the point of partitioning is that they run at the same time.
	par.ForWorkers(n, n, func(i int) {
		g := s.parts[i]
		r := g.pick(s.pickSeq.Add(1))
		g.pending[r].Add(1)
		var legStart time.Time
		if tr != nil {
			legStart = time.Now()
		}
		per[i], errs[i] = g.reps[r].Resolve(probe, k, skip)
		if tr != nil {
			tr.ObservePartition(i, time.Since(legStart))
		}
		g.pending[r].Add(-1)
	})
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageScatter, now.Sub(t0))
		if _, slowest := tr.Slowest(); slowest > 0 {
			tr.Add(obs.StageScatterSlowest, slowest)
		}
		t0 = now
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var top match.TopK
	top.Reset(k)
	for _, res := range per {
		for _, e := range res {
			top.Offer(e)
		}
	}
	s.probes.Add(1)
	s.pruned.Add(int64(len(skip)))
	sorted := top.AppendSorted(nil)
	if tr != nil {
		tr.Add(obs.StageTopKMerge, time.Since(t0))
	}
	return sorted, nil
}

// Snapshot cuts a snapshot of every durable partition concurrently and
// returns the per-partition results (indexed by partition).
func (s *Store) Snapshot() ([]match.SnapshotInfo, error) {
	n := len(s.parts)
	infos := make([]match.SnapshotInfo, n)
	errs := make([]error, n)
	par.ForWorkers(n, n, func(i int) {
		infos[i], errs[i] = s.parts[i].primary().Snapshot()
	})
	return infos, errors.Join(errs...)
}

// Close seals every partition concurrently (durable partitions roll their
// tails into final snapshots).
func (s *Store) Close() error {
	n := len(s.parts)
	errs := make([]error, n)
	par.ForWorkers(n, n, func(i int) {
		errs[i] = s.parts[i].primary().Close()
	})
	return errors.Join(errs...)
}

// --- census ---

func (s *Store) censusShardOf(tok string) *censusShard {
	return &s.census[maphash.String(s.seed, tok)&(censusShards-1)]
}

// censusAdd counts a just-installed record's distinct tokens (a no-op
// without a census). The values passed the arity check upstream, so
// DistinctTokens cannot fail.
func (s *Store) censusAdd(values []string) {
	if s.census == nil {
		return
	}
	_ = s.tok.Store().DistinctTokens(values, func(t string) {
		cs := s.censusShardOf(t)
		cs.mu.Lock()
		cs.m[t]++
		cs.mu.Unlock()
	})
}

// censusRemove uncounts a just-deleted record's distinct tokens (a no-op
// without a census).
func (s *Store) censusRemove(values []string) {
	if s.census == nil {
		return
	}
	_ = s.tok.Store().DistinctTokens(values, func(t string) {
		cs := s.censusShardOf(t)
		cs.mu.Lock()
		if cs.m[t] <= 1 {
			delete(cs.m, t)
		} else {
			cs.m[t]--
		}
		cs.mu.Unlock()
	})
}

func (s *Store) censusCount(tok string) int {
	cs := s.censusShardOf(tok)
	cs.mu.RLock()
	n := cs.m[tok]
	cs.mu.RUnlock()
	return n
}

// appendSkip computes the probe's globally pruned stop tokens: every
// distinct probe token whose census live count exceeds the resolved
// MaxBlockSize — the same predicate a flat store applies per posting list —
// sorted ascending for the partitions' binary-search skip check. Without a
// census the skip list is empty: the lone partition prunes locally.
func (s *Store) appendSkip(dst []string, probe []string) ([]string, error) {
	if s.maxBlock <= 0 || s.census == nil {
		return dst[:0], nil
	}
	dst = dst[:0]
	err := s.tok.Store().DistinctTokens(probe, func(t string) {
		if s.censusCount(t) > s.maxBlock {
			dst = append(dst, t)
		}
	})
	if err != nil {
		return dst, err
	}
	slices.Sort(dst)
	return dst, nil
}

// --- stats ---

// Stats is the router-level view the partition_stats expvar publishes.
type Stats struct {
	Partitions   int     `json:"partitions"`
	Replicas     int     `json:"replicas"`
	Records      []int   `json:"records"`       // live records per partition (skew at a glance)
	Pending      []int64 `json:"pending"`       // in-flight reads per partition (summed over replicas)
	Probes       int64   `json:"probes"`        // scatter-gather resolves served
	PrunedTokens int64   `json:"pruned_tokens"` // probe tokens the census pruned, cumulative (0 with one partition, which prunes locally)
	CensusTokens int     `json:"census_tokens"` // distinct tokens currently counted (0 with one partition)
}

// Stats snapshots the router counters (brief per-stripe locks).
func (s *Store) Stats() Stats {
	st := Stats{
		Partitions:   len(s.parts),
		Replicas:     s.Replicas(),
		Records:      make([]int, len(s.parts)),
		Pending:      make([]int64, len(s.parts)),
		Probes:       s.probes.Load(),
		PrunedTokens: s.pruned.Load(),
	}
	for i, g := range s.parts {
		st.Records[i] = g.primary().Len()
		for r := range g.pending {
			st.Pending[i] += g.pending[r].Load()
		}
	}
	for i := range s.census {
		cs := &s.census[i]
		cs.mu.RLock()
		st.CensusTokens += len(cs.m)
		cs.mu.RUnlock()
	}
	return st
}

// PartitionStats snapshots every partition's index counters.
func (s *Store) PartitionStats() []match.Stats {
	out := make([]match.Stats, len(s.parts))
	for i, g := range s.parts {
		out[i] = g.primary().Stats()
	}
	return out
}

// MatchStats sums every partition's index counters: the store-wide view
// of live records, tokens, tombstones and compactions. Probes and
// Candidates count partition legs, so with N partitions one resolve adds
// N probes.
func (s *Store) MatchStats() match.Stats {
	var t match.Stats
	for _, st := range s.PartitionStats() {
		t.Live += st.Live
		t.Added += st.Added
		t.Deleted += st.Deleted
		t.Tokens += st.Tokens
		t.Tombstones += st.Tombstones
		t.Compactions += st.Compactions
		t.Probes += st.Probes
		t.Candidates += st.Candidates
	}
	return t
}

// DurableStats snapshots every partition's WAL and snapshot counters,
// indexed by partition; nil when the partitions do not persist.
func (s *Store) DurableStats() []match.DurableStats {
	out := make([]match.DurableStats, len(s.parts))
	for i, g := range s.parts {
		l, ok := g.primary().(*Local)
		if !ok || l.Durable() == nil {
			return nil
		}
		out[i] = l.Durable().DurableStats()
	}
	return out
}

// PartitionShardStats snapshots every partition's per-shard counters (the
// match_shard_stats expvar).
func (s *Store) PartitionShardStats() [][]match.ShardStat {
	out := make([][]match.ShardStat, len(s.parts))
	for i, g := range s.parts {
		out[i] = g.primary().ShardStats()
	}
	return out
}
