// Package partition scales the online match subsystem horizontally: a
// Store consistent-hashes records across N independent match partitions —
// each with its own blocking index and mutation domain, so an add or
// delete touches exactly one partition's locks — and answers Resolve by
// scatter-gather: every partition ranks the probe against its own records
// concurrently, and the per-partition top-k heaps merge into one
// order-stable result (Prob descending, ID ascending) that is bit-identical
// to what a single flat store over the same records would return (the
// fuzzed oracle test pins this).
//
// Two decisions make the bit-identical claim hold:
//
//   - Record IDs are assigned globally by the Store's own allocator and
//     records are routed by consistent-hashing the ID, so the tie-break
//     order (lower ID wins) is the same order a flat store would have
//     produced.
//   - Stop-token pruning is decided globally: per-partition posting lists
//     hold only a slice of each token's records, so partitions run with
//     local pruning disabled and the Store keeps a token census (token →
//     live record count across all partitions). A probe's pruned tokens
//     are computed from the census once and passed to every partition as a
//     sorted skip list — exactly the verdict the flat store's per-posting
//     live counts would have reached. A single partition's posting lists
//     already hold every record, so with one partition there is no census:
//     the partition prunes locally, exactly as a flat store does.
//
// Partition is an interface: Local wraps an in-process match.Store (or its
// durable variant), and the seam is shaped so an HTTP-client partition —
// multiple serve processes behind a router — is a follow-on, not a
// rewrite. Replica fan-out for read-heavy traffic picks among a
// partition's replicas by power-of-two-choices on in-flight counts; the
// in-process replicas share one store, so the pick is a routing seam with
// real counters rather than a second copy of the data.
package partition

import (
	"errors"
	"fmt"

	"repro/internal/match"
	"repro/internal/obs"
)

// ErrNotDurable marks snapshot requests against an in-memory partition.
var ErrNotDurable = errors.New("partition: store is not durable")

// Scorer ranks one probe against one partition's records. The facade's
// Model implements it (the pooled zero-allocation scoring path); tests use
// deterministic fakes. Implementations must rank Prob descending with ties
// toward the lower record ID, honor the skip list (sorted ascending), and
// return at most k entries — the Store's merge is only exact when every
// partition reports its true local top k.
type Scorer interface {
	ResolveShard(st *match.Store, probe []string, k int, skip []string) ([]match.Scored, error)
}

// Partition is one shard of a partitioned store. Local implements it
// in-process; an HTTP client implementation (records and probes routed to
// a remote serve process) satisfies the same contract.
type Partition interface {
	// AddAt installs a record under the globally assigned ID (which the
	// router guarantees is not live here).
	AddAt(id uint64, values []string) error
	// Delete tombstones a record; false means the ID is unknown here.
	Delete(id uint64) (bool, error)
	// Get returns the record's values (the store's immutable copy).
	Get(id uint64) ([]string, bool)
	// Resolve ranks the probe against this partition's records, honoring
	// the global skip list: up to k entries, Prob descending, ID ascending.
	Resolve(probe []string, k int, skip []string) ([]match.Scored, error)
	// Len is the live record count.
	Len() int
	// NextID is the partition's record-ID high-water mark (replayed
	// durable partitions restore it; the router takes the max).
	NextID() uint64
	// Stats and ShardStats expose the partition's index counters for the
	// per-partition expvars.
	Stats() match.Stats
	ShardStats() []match.ShardStat
	// Snapshot cuts a durable snapshot now (ErrNotDurable on an in-memory
	// partition).
	Snapshot() (match.SnapshotInfo, error)
	// Close seals the partition (a durable partition rolls its tail into a
	// final snapshot).
	Close() error
}

// Local is the in-process Partition: a match.Store (optionally wrapped in
// its durability layer) plus the Scorer that ranks probes against it.
type Local struct {
	st  *match.Store
	dur *match.DurableStore // nil for in-memory
	sc  Scorer
}

// NewLocal wraps an in-memory store.
func NewLocal(st *match.Store, sc Scorer) *Local {
	return &Local{st: st, sc: sc}
}

// NewLocalDurable wraps a durable store: mutations go through its WAL,
// reads and probes hit the embedded store directly.
func NewLocalDurable(d *match.DurableStore, sc Scorer) *Local {
	return &Local{st: d.Store, dur: d, sc: sc}
}

// Store exposes the underlying match store (reads only — mutations must go
// through AddAt/Delete so the durable layer sees them).
func (l *Local) Store() *match.Store { return l.st }

// Durable returns the durability layer, or nil for an in-memory partition.
func (l *Local) Durable() *match.DurableStore { return l.dur }

// AddAt implements Partition. On a durable partition the record is logged
// before it is applied (the wal-before-apply contract lives in
// match.DurableStore.AddAt).
func (l *Local) AddAt(id uint64, values []string) error {
	if l.dur != nil {
		return l.dur.AddAt(id, values)
	}
	return l.st.AddAt(id, values)
}

// Delete implements Partition.
func (l *Local) Delete(id uint64) (bool, error) {
	if l.dur != nil {
		return l.dur.Delete(id)
	}
	return l.st.Delete(id), nil
}

// Get implements Partition.
func (l *Local) Get(id uint64) ([]string, bool) { return l.st.Get(id) }

// Resolve implements Partition: the scorer ranks the probe against this
// partition's records with the global pruning verdict applied.
func (l *Local) Resolve(probe []string, k int, skip []string) ([]match.Scored, error) {
	return l.sc.ResolveShard(l.st, probe, k, skip)
}

// TraceMutator is the optional capability of a Partition whose mutations
// can carry a request-scoped obs.Trace (WAL append/fsync/apply stage
// timing). The router type-asserts for it; partitions without it are
// driven through the plain Partition methods and simply record no
// durability stages.
type TraceMutator interface {
	AddAtTraced(id uint64, values []string, tr *obs.Trace) error
	DeleteTraced(id uint64, tr *obs.Trace) (bool, error)
}

// AddAtTraced implements TraceMutator. In-memory partitions have no WAL;
// only the durable path records stages.
func (l *Local) AddAtTraced(id uint64, values []string, tr *obs.Trace) error {
	if l.dur != nil {
		return l.dur.AddAtTraced(id, values, tr)
	}
	return l.st.AddAt(id, values)
}

// DeleteTraced implements TraceMutator.
func (l *Local) DeleteTraced(id uint64, tr *obs.Trace) (bool, error) {
	if l.dur != nil {
		return l.dur.DeleteTraced(id, tr)
	}
	return l.st.Delete(id), nil
}

// Len implements Partition.
func (l *Local) Len() int { return l.st.Len() }

// NextID implements Partition.
func (l *Local) NextID() uint64 { return l.st.NextID() }

// Stats implements Partition.
func (l *Local) Stats() match.Stats { return l.st.Stats() }

// ShardStats implements Partition.
func (l *Local) ShardStats() []match.ShardStat { return l.st.ShardStats() }

// Snapshot implements Partition.
func (l *Local) Snapshot() (match.SnapshotInfo, error) {
	if l.dur == nil {
		return match.SnapshotInfo{}, fmt.Errorf("%w: partition has no data dir", ErrNotDurable)
	}
	return l.dur.Snapshot()
}

// Close implements Partition. In-memory partitions have nothing to seal.
func (l *Local) Close() error {
	if l.dur == nil {
		return nil
	}
	return l.dur.Close()
}
