package server

import (
	"context"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
)

// reqKind buckets requests for the request-level latency histograms.
type reqKind uint8

const (
	reqScore reqKind = iota
	reqResolve
	reqIngest
	numReqKinds
)

func (k reqKind) String() string {
	switch k {
	case reqScore:
		return "score"
	case reqResolve:
		return "resolve"
	default:
		return "ingest"
	}
}

// Metrics is the server's observability surface: one histogram per trace
// stage, one per request kind, and the slow-request log. Built only when
// Config.Obs is set; a nil *Metrics disables all of it (every method is
// nil-safe), which is the zero-overhead mode the tracing-off benchmarks
// pin.
type Metrics struct {
	reg       *obs.Registry
	stage     [obs.NumStages]*obs.Histogram
	req       [numReqKinds]*obs.Histogram
	slowTotal *obs.Counter
	reqSeq    atomic.Uint64
	slow      time.Duration
	log       *slog.Logger
}

func newMetrics(reg *obs.Registry, slow time.Duration, logger *slog.Logger) *Metrics {
	if logger == nil {
		logger = slog.Default()
	}
	m := &Metrics{reg: reg, slow: slow, log: logger}
	// One histogram per trace stage, names locked to Stage.String() (the
	// test cross-checks); literal so metriclint can see them.
	m.stage[obs.StageBatchWait] = reg.Histogram("stage_batch_wait_ns")
	m.stage[obs.StageBatchAssemble] = reg.Histogram("stage_batch_assemble_ns")
	m.stage[obs.StageScoreBatch] = reg.Histogram("stage_score_batch_ns")
	m.stage[obs.StageProbeTokenize] = reg.Histogram("stage_probe_tokenize_ns")
	m.stage[obs.StageScore] = reg.Histogram("stage_score_ns")
	m.stage[obs.StageScatter] = reg.Histogram("stage_scatter_ns")
	m.stage[obs.StageScatterSlowest] = reg.Histogram("stage_scatter_slowest_ns")
	m.stage[obs.StageTopKMerge] = reg.Histogram("stage_topk_merge_ns")
	m.stage[obs.StageWALAppend] = reg.Histogram("stage_wal_append_ns")
	m.stage[obs.StageWALFsync] = reg.Histogram("stage_wal_fsync_ns")
	m.stage[obs.StageStoreApply] = reg.Histogram("stage_store_apply_ns")
	m.stage[obs.StageSnapshotCut] = reg.Histogram("stage_snapshot_cut_ns")
	m.stage[obs.StageSnapshotPublish] = reg.Histogram("stage_snapshot_publish_ns")
	m.req[reqScore] = reg.Histogram("request_score_ns")
	m.req[reqResolve] = reg.Histogram("request_resolve_ns")
	m.req[reqIngest] = reg.Histogram("request_ingest_ns")
	m.slowTotal = reg.Counter("slow_requests_total")
	return m
}

// begin starts a request trace with a fresh request id, or nil when
// metrics are disabled (nil m) — the trace pointer then threads through
// the stack as a no-op.
func (m *Metrics) begin() *obs.Trace {
	if m == nil {
		return nil
	}
	return obs.NewTrace(m.reqSeq.Add(1))
}

// finish flushes a completed request's trace into the stage and
// request-kind histograms and emits the structured slow-request log line
// when the total crossed the -slow-request threshold. Nil-safe on both m
// and tr.
func (m *Metrics) finish(kind reqKind, tr *obs.Trace) {
	if m == nil || tr == nil {
		return
	}
	total := tr.Total()
	m.req[kind].Observe(int64(total))
	tr.Each(func(s obs.Stage, d time.Duration) {
		m.stage[s].Observe(int64(d))
	})
	if m.slow <= 0 || total < m.slow {
		return
	}
	m.slowTotal.Inc()
	attrs := make([]slog.Attr, 0, obs.NumStages+5)
	attrs = append(attrs,
		slog.Uint64("request_id", tr.ID()),
		slog.String("kind", kind.String()),
		slog.Int64("total_ns", int64(total)),
	)
	if part, d := tr.Slowest(); d > 0 {
		attrs = append(attrs, slog.Int("slowest_partition", part))
	}
	tr.Each(func(s obs.Stage, d time.Duration) {
		attrs = append(attrs, slog.Int64(s.String()+"_ns", int64(d)))
	})
	m.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

// observeStage feeds one stage duration straight into its histogram —
// the path for stages with no request to attach to (background snapshot
// cut/publish via match.DurableOptions.OnStage). Nil-safe.
func (m *Metrics) observeStage(stage obs.Stage, d time.Duration) {
	if m == nil || int(stage) >= obs.NumStages {
		return
	}
	m.stage[stage].Observe(int64(d))
}

// registerServerMetrics migrates the serving debug vars (previously
// published directly onto expvar by cmd/serve) onto the registry, names
// and layouts unchanged: Registry.MirrorExpvar reproduces the exact
// /debug/vars surface, and /metrics flattens the same trees into
// Prometheus samples.
func registerServerMetrics(s *Server, reg *obs.Registry) {
	reg.Func("batcher_flushes", func() any {
		flushes, _ := s.BatchStats()
		return flushes
	})
	reg.Func("batcher_batched_pairs", func() any {
		_, pairs := s.BatchStats()
		return pairs
	})
	reg.Func("batcher_mean_flush", func() any {
		flushes, pairs := s.BatchStats()
		if flushes == 0 {
			return 0.0
		}
		return float64(pairs) / float64(flushes)
	})
	reg.Func("batcher_max_flush", func() any { return s.MaxFlush() })
	reg.Func("batcher_queue_depth", func() any { return s.QueueDepth() })
	reg.Func("served_pairs", func() any { return s.Served() })
	reg.Func("model_swaps", func() any { return s.Swaps() })

	// Match-store counters as one tree, summed over the partitions: a
	// single sweep per scrape (Stats briefly takes every shard lock, so one
	// consistent snapshot beats five contending ones), re-read from the
	// current store so the counters follow a forced schema-changing swap.
	// Probes count partition legs (see partition.Store.MatchStats).
	reg.Func("match_store", func() any {
		st := s.Partitioned().MatchStats()
		mean := 0.0
		if st.Probes > 0 {
			mean = float64(st.Candidates) / float64(st.Probes)
		}
		return map[string]any{
			"records_live":              st.Live,
			"records_indexed":           st.Added,
			"records_deleted":           st.Deleted,
			"tokens":                    st.Tokens,
			"tombstones":                st.Tombstones,
			"compactions":               st.Compactions,
			"probes":                    st.Probes,
			"resolves":                  s.Resolves(),
			"mean_candidates_per_probe": mean,
		}
	})

	// Per-shard index counters (skew at a glance), per partition.
	reg.Func("match_shard_stats", func() any {
		return map[string]any{"partitioned": true, "partitions": s.Partitioned().PartitionShardStats()}
	})

	// Scatter-gather router counters. With one partition there is no
	// census, so pruned_tokens and census_tokens read 0 while the
	// partition prunes locally.
	reg.Func("partition_stats", func() any {
		ps := s.Partitioned()
		st := ps.Stats()
		return map[string]any{
			"enabled":       true,
			"partitions":    st.Partitions,
			"replicas":      st.Replicas,
			"records":       st.Records,
			"pending":       st.Pending,
			"probes":        st.Probes,
			"pruned_tokens": st.PrunedTokens,
			"census_tokens": st.CensusTokens,
			"durable":       ps.Durable(),
			"next_id":       ps.NextID(),
		}
	})

	// Durability counters, one DurableStats sweep per scrape, summed over
	// the partitions. Registered even on an in-memory server (as
	// {"enabled": false}) so dashboards can tell "no durability" from
	// "metric missing".
	reg.Func("wal_stats", func() any {
		ds := s.Partitioned().DurableStats()
		if ds == nil {
			return map[string]any{"enabled": false}
		}
		st := sumDurable(ds)
		return map[string]any{
			"enabled":       true,
			"dir":           st.Dir,
			"segment_seq":   st.WALSeq,
			"segment_bytes": st.WALSegmentBytes,
			"appends":       st.WALAppends,
			"bytes":         st.WALBytes,
			"syncs":         st.WALSyncs,
			"tail_ops":      st.TailOps,
		}
	})
	reg.Func("snapshot_stats", func() any {
		ds := s.Partitioned().DurableStats()
		if ds == nil {
			return map[string]any{"enabled": false}
		}
		st := sumDurable(ds)
		return map[string]any{
			"enabled":             true,
			"snapshots":           st.Snapshots,
			"last_seq":            st.SnapshotSeq,
			"last_records":        st.SnapshotRecords,
			"last_bytes":          st.SnapshotBytes,
			"last_millis":         st.SnapshotMillis,
			"replay_tail_frames":  st.Replay.TailFrames,
			"replay_snapshot_rec": st.Replay.SnapshotRecords,
			"replay_torn_tail":    st.Replay.TornTail,
			"replay_millis":       st.Replay.Duration.Milliseconds(),
		}
	})
}

// sumDurable folds the per-partition durability counters into one
// store-wide view: counts and sizes add up; sequence numbers, the last
// snapshot's and the replay's durations take the maximum (partitions
// snapshot and replay concurrently); a torn tail in any partition counts.
// Dir is the data dir holding the part-NNN subdirectories.
func sumDurable(ds []match.DurableStats) match.DurableStats {
	t := match.DurableStats{Dir: filepath.Dir(ds[0].Dir)}
	for _, d := range ds {
		t.WALSeq = max(t.WALSeq, d.WALSeq)
		t.WALSegmentBytes += d.WALSegmentBytes
		t.WALAppends += d.WALAppends
		t.WALBytes += d.WALBytes
		t.WALSyncs += d.WALSyncs
		t.TailOps += d.TailOps
		t.Snapshots += d.Snapshots
		t.SnapshotSeq = max(t.SnapshotSeq, d.SnapshotSeq)
		t.SnapshotRecords += d.SnapshotRecords
		t.SnapshotBytes += d.SnapshotBytes
		t.SnapshotMillis = max(t.SnapshotMillis, d.SnapshotMillis)
		t.Replay.TailFrames += d.Replay.TailFrames
		t.Replay.SnapshotRecords += d.Replay.SnapshotRecords
		t.Replay.TornTail = t.Replay.TornTail || d.Replay.TornTail
		t.Replay.Duration = max(t.Replay.Duration, d.Replay.Duration)
	}
	return t
}
