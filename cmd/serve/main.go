// Command serve runs the risk-scoring HTTP service: a trained
// learnrisk.Model behind a dynamic micro-batcher with atomic hot-swap.
//
// Load a saved artifact (the production shape — train once with
// cmd/learnrisk -save, serve anywhere):
//
//	serve -model model.json -addr :8080
//
// Or train a model at startup on a synthetic workload (handy for demos and
// smoke tests; the artifact can then be hot-swapped later):
//
//	serve -profile AB -scale 0.05 -seed 9 -addr :8080
//
// Endpoints (JSON):
//
//	POST   /v1/score         {"left": [...], "right": [...]}
//	POST   /v1/score/batch   {"pairs": [{"left": [...], "right": [...]}, ...]}
//	POST   /v1/explain       {"left": [...], "right": [...]}
//	POST   /v1/records       {"values": [...]}
//	DELETE /v1/records/{id}
//	POST   /v1/resolve       {"values": [...], "k": 5}
//	POST   /v1/snapshot      cut a durable-store snapshot now (-data-dir only)
//	GET    /v1/model
//	POST   /v1/model/reload  {"path": "new.json", "force": false}
//	GET    /metrics          Prometheus text exposition (all serving metrics)
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 until the model is loaded and
//	                         the -records warm-load has finished)
//
// -records seeds the online match store from a CSV in the repository's
// table layout (header row, then id,entity_id,<values...> — what
// cmd/datagen and dataset.WriteTableCSV emit). The load runs in the
// background: the listener accepts traffic immediately, /readyz flips to
// 200 when the index is warm.
//
// The match store is partitioned, with one partition by default.
// -partitions N shards it across N independent partitions: records
// consistent-hash by ID, every resolve scatter-gathers across all
// partitions concurrently and merges their top-k heaps into the same
// ranked answer one flat store would return. One partition holds every
// record, so it prunes stop tokens on its own posting lists and keeps no
// token census (partition_stats_pruned_tokens then reads 0); more
// partitions prune from a global census. -replicas R fans each
// partition's reads across R replicas (power-of-two-choices).
// -max-pending bounds in-flight record mutations (default 256); past the
// bound, ingest answers 429 + Retry-After instead of queueing without
// bound (back-pressure sheds writes, never resolves).
//
// -data-dir makes the match store durable: each partition persists into
// its own part-NNN subdirectory, every accepted record mutation is framed
// into that partition's write-ahead log (fsynced per the -fsync policy)
// before it is applied, periodic snapshots (-snapshot-every) bound replay
// time, and a restart replays snapshot + log tail to serve the same
// records with no -records re-ingest. Partitions replay concurrently in
// the background (restart time is the slowest partition, not the sum);
// /readyz lists per-partition replay progress and record mutations answer
// 503 until it finishes. POST /v1/snapshot cuts a snapshot on demand.
// With a populated -data-dir, -records is skipped (the store already has
// its records); it seeds only an empty data dir. The partition count is
// fixed when the dir is created. A data dir written by an older,
// unpartitioned server (wal-*.log and snap-*.db at its top level) is
// refused with the fix: move those files into part-000 and start with
// -partitions 1.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight requests
// finish (bounded by -shutdown-timeout), then the micro-batcher stops, and
// a durable store is closed last — its tail is rolled into a final
// snapshot, so a clean restart replays zero log frames.
//
// -pprof localhost:6060 starts a second, debug-only listener exposing
// /debug/pprof (CPU/heap/goroutine profiles) and /debug/vars (expvar
// counters: batcher flushes, batched pairs, mean/max flush size, queue
// depth, served pairs, model swaps, the match store's records, tombstones,
// compactions, resolves and mean candidates per probe, and — with
// -data-dir — wal_stats/snapshot_stats durability counters). Keep
// it bound to localhost — it is intentionally separate from the
// client-facing listener. -mutex-profile-fraction and
// -block-profile-rate turn on the runtime's contention profiles
// (mutex/block under /debug/pprof), which are silently empty without them.
//
// All of those counters — plus per-stage latency histograms (batcher
// wait, scatter per partition, WAL append/fsync, snapshot cut/publish),
// request-level p50/p95/p99 and a runtime sampler — also render as
// Prometheus text exposition on the serving listener's GET /metrics.
// -slow-request 50ms logs a structured line (request id + per-stage
// breakdown) for every request slower than that; -log-format json makes
// the log machine-parseable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (the -pprof listener)
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	learnrisk "repro"
	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelPath   = flag.String("model", "", "saved model artifact to serve (also the default for /v1/model/reload)")
		profile     = flag.String("profile", "AB", "synthetic profile to train on when -model is empty: DS|AB|AG|SG|DA")
		scale       = flag.Float64("scale", 0.05, "synthetic dataset scale for startup training")
		seed        = flag.Uint64("seed", 1, "seed for startup training")
		maxBatch    = flag.Int("max-batch", 64, "micro-batcher flush size (1 disables coalescing)")
		maxLinger   = flag.Duration("max-linger", 2*time.Millisecond, "how long a micro-batch that already has company waits for more pairs; a lone request always flushes at once (0 = greedy: no batch waits)")
		recordsPath = flag.String("records", "", "CSV table (id,entity_id,<values...> with header) to warm-load into the match store; /readyz is 503 until done")
		dataDir     = flag.String("data-dir", "", "directory for the durable match store (WAL + snapshots); empty keeps the store in-memory only")
		fsyncFlag   = flag.String("fsync", "always", "WAL fsync policy: always (durable before ack), never, or an interval like 100ms")
		snapEvery   = flag.Int("snapshot-every", 10000, "logged operations between automatic snapshots (negative disables; snapshots then happen only via POST /v1/snapshot and shutdown)")
		minShared   = flag.Int("match-min-shared", 0, "blocking tokens a stored record must share with a probe (0 = default 1)")
		maxBlock    = flag.Int("match-max-block", 0, "stop-token pruning bound for the match index (0 = default 200, negative disables)")
		partitions  = flag.Int("partitions", 1, "partition the match store across this many independent partitions (scatter-gather resolve; one partition prunes stop tokens locally and keeps no token census)")
		replicas    = flag.Int("replicas", 1, "read replicas per partition (power-of-two-choices fan-out)")
		maxPending  = flag.Int("max-pending", 0, "bounded ingest queue: record mutations beyond this many in flight answer 429 (0 = default 256; negative disables)")
		pprofAddr   = flag.String("pprof", "", "optional debug listener address (e.g. localhost:6060) exposing /debug/pprof and /debug/vars; empty disables it")
		mutexFrac   = flag.Int("mutex-profile-fraction", 5, "with -pprof, sample 1/N of mutex-contention events into /debug/pprof/mutex (0 disables)")
		blockRate   = flag.Int("block-profile-rate", 0, "with -pprof, sample blocking events of at least this many ns into /debug/pprof/block (0 disables; sampling has measurable overhead)")
		slowReq     = flag.Duration("slow-request", 0, "log a structured per-stage breakdown for every request slower than this (0 disables)")
		logFormat   = flag.String("log-format", "text", "structured log output: text or json (json makes slow-request lines machine-parseable)")
		readTimeout = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTO      = flag.Duration("idle-timeout", 60*time.Second, "HTTP idle timeout")
		shutdownTO  = flag.Duration("shutdown-timeout", 15*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	slog.SetDefault(logger)

	model, err := obtainModel(*modelPath, *profile, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving model %.12s (%d risk features, envelope v%d)",
		model.Fingerprint(), model.NumFeatures(), model.EnvelopeVersion())

	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	srv := server.New(model, server.Config{
		MaxBatch:  *maxBatch,
		MaxLinger: configLinger(*maxLinger),
		ModelPath: *modelPath,
		Match: match.Config{
			MinSharedTokens: *minShared,
			MaxBlockSize:    *maxBlock,
		},
		Partitions:  *partitions,
		Replicas:    *replicas,
		MaxPending:  *maxPending,
		Obs:         reg,
		SlowRequest: *slowReq,
		Logger:      logger,
	})
	defer srv.Close()
	// Mirror every registry metric onto expvar so the -pprof listener's
	// /debug/vars keeps its pre-registry surface: same names, same tree
	// shapes, now sourced from the same registry /metrics scrapes.
	reg.MirrorExpvar()

	// The signal context exists before the warm-up goroutines start so a
	// SIGINT during a large -records load stops the row loop promptly
	// instead of waiting for the whole file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Store warm-up runs in the background so the listener binds
	// immediately; /readyz holds 503 until the store is populated (or
	// reports why the warm-up failed — a replica with a half-empty index
	// must not take traffic silently). With -data-dir the warm-up is the
	// durable replay (snapshot + WAL tail), optionally followed by a
	// -records seed when the replayed store came up empty.
	switch {
	case *dataDir != "":
		policy, interval, err := wal.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetDurablePending()
		srv.SetNotReady(fmt.Sprintf("opening %d durable match partitions in %s", srv.Partitioned().Partitions(), *dataDir))
		go openPartitionedStore(ctx, srv, *dataDir, *recordsPath, match.DurableOptions{
			Sync:          policy,
			SyncInterval:  interval,
			SnapshotEvery: *snapEvery,
			Logf:          log.Printf,
			OnStage:       srv.ObserveStage,
		})
	case *recordsPath != "":
		srv.SetNotReady(fmt.Sprintf("warm-loading match records from %s", *recordsPath))
		go func() {
			n, err := warmLoadRecords(ctx, srv, srv.Partitioned().Arity(), *recordsPath)
			if err != nil {
				log.Printf("warm-load: %v (after %d records)", err, n)
				srv.SetNotReady(fmt.Sprintf("warm-load of %s failed: %v", *recordsPath, err))
				return
			}
			log.Printf("warm-loaded %d records into the match store", n)
			srv.SetReady()
		}()
	}

	if *pprofAddr != "" {
		// Without these the mutex and block profiles exist but stay
		// silently empty: the runtime samples no contention events until a
		// fraction (mutex) or rate (block) is set.
		runtime.SetMutexProfileFraction(*mutexFrac)
		runtime.SetBlockProfileRate(*blockRate)
		// The debug listener is separate from the serving listener on
		// purpose: profiling and introspection endpoints never share a
		// port (or timeouts) with client traffic. DefaultServeMux carries
		// /debug/pprof (net/http/pprof import) and /debug/vars (expvar).
		go func() {
			log.Printf("debug listener on %s (/debug/pprof, /debug/vars)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
	}

	errc := make(chan error, 1)
	go func() {
		linger := fmt.Sprintf("batches with company linger up to %s", *maxLinger)
		if *maxLinger <= 0 {
			linger = "greedy: no batch lingers"
		}
		log.Printf("listening on %s (max-batch=%d; lone requests flush at once, %s)", *addr, *maxBatch, linger)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (up to %s)", *shutdownTO)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	// Ordering matters: the HTTP drain above means no request is mid-mutation,
	// the batcher drain answers everything already accepted, and only then is
	// the durable store sealed — its unsnapshotted tail rolls into a final
	// snapshot so the next start replays zero log frames.
	srv.Close()
	if ps := srv.Partitioned(); ps.Durable() {
		log.Printf("sealing %d durable match partitions (final snapshots)", ps.Partitions())
		if err := ps.Close(); err != nil {
			log.Printf("partitioned store close: %v", err)
		}
	}
	log.Printf("served %d pairs across %d hot-swaps; bye", srv.Served(), srv.Swaps())
}

// openPartitionedStore replays every partition's data subdirectory
// concurrently in the background (the listener is already up; /readyz
// aggregates per-partition replay progress), installs the store, and seeds
// it from recordsPath only when the replay produced an empty store.
func openPartitionedStore(ctx context.Context, srv *server.Server, dir, recordsPath string, opts match.DurableOptions) {
	partitions := srv.Partitioned().Partitions()
	for i := 0; i < partitions; i++ {
		srv.SetPartitionNotReady(i, "opening")
	}
	progress := func(part int, phase string, done, total int) {
		if total > 0 {
			srv.SetPartitionNotReady(part, fmt.Sprintf("replaying: %s %d/%d", phase, done, total))
		} else {
			srv.SetPartitionNotReady(part, fmt.Sprintf("replaying: %s %d ops", phase, done))
		}
	}
	ps, err := srv.OpenDurableStore(dir, opts, progress)
	if err != nil {
		// The replica must not take traffic with its records missing, and
		// mutations stay refused (the pending gate holds): an operator
		// decision is needed, not a silently empty store.
		log.Printf("durable store: %v", err)
		srv.SetNotReady(fmt.Sprintf("durable store open failed: %v", err))
		return
	}
	log.Printf("durable store %s: %d partitions, %d live records", dir, ps.Partitions(), ps.Len())
	for i := 0; i < partitions; i++ {
		srv.SetPartitionReady(i)
	}
	if recordsPath != "" {
		if ps.Len() > 0 {
			log.Printf("skipping -records %s: the durable store already holds %d records", recordsPath, ps.Len())
		} else {
			srv.SetNotReady(fmt.Sprintf("seeding durable store from %s", recordsPath))
			n, err := warmLoadRecords(ctx, srv, ps.Arity(), recordsPath)
			if err != nil {
				log.Printf("warm-load: %v (after %d records)", err, n)
				srv.SetNotReady(fmt.Sprintf("warm-load of %s failed: %v", recordsPath, err))
				return
			}
			log.Printf("seeded %d records into the durable store", n)
		}
	}
	srv.SetReady()
}

// configLinger maps the -max-linger flag onto server.Config.MaxLinger. The
// flag spells greedy as 0; the config spells it negative, because its
// zero takes the 2ms default.
func configLinger(flagValue time.Duration) time.Duration {
	if flagValue == 0 {
		return -1
	}
	return flagValue
}

// buildLogger makes the process slog.Logger per -log-format: "text" is
// the human default, "json" emits one JSON object per line — the shape
// log shippers want for the -slow-request stage breakdowns.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("serve: -log-format %q is not \"text\" or \"json\"", format)
}

// recordAdder is the slice of the server the warm-load needs: accept one
// record's values. Narrowing the dependency keeps the load path testable
// without a listener.
type recordAdder interface {
	AddRecord(values []string) (uint64, error)
}

// warmLoadRecords streams a CSV table (the repository layout dataset.
// ScanTableCSV reads: header row, then id,entity_id,<values...>) into the
// match store one row at a time — the file is never materialized as a
// table, so a multi-gigabyte warm-load holds one record in memory. Only
// the schema arity matters for parsing — attribute types drive metric
// selection at training time, not CSV layout — so the schema handed to the
// scanner carries zero-valued types.
//
// The context is checked per record: cancellation (SIGINT mid-load) stops
// promptly with ctx.Err(). On any failure the returned count is the number
// of records actually applied to the store — the accounting an operator
// needs to judge a partially warmed replica.
func warmLoadRecords(ctx context.Context, dst recordAdder, arity int, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	schema := &dataset.Schema{Attrs: make([]dataset.Attr, arity)}
	loaded := 0
	err = dataset.ScanTableCSV(f, path, schema, func(r dataset.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := dst.AddRecord(r.Values); err != nil {
			return fmt.Errorf("%s record %d (id %q): %w", path, loaded, r.ID, err)
		}
		loaded++
		return nil
	})
	return loaded, err
}

// obtainModel loads the artifact at path, or trains a fresh model on a
// synthetic workload when no path is given.
func obtainModel(path, profile string, scale float64, seed uint64) (*learnrisk.Model, error) {
	if path != "" {
		m, err := learnrisk.LoadFile(path)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded artifact %s", path)
		return m, nil
	}
	log.Printf("no -model artifact: training on synthetic %s at scale %g (seed %d)", profile, scale, seed)
	w, err := learnrisk.Generate(profile, scale, seed)
	if err != nil {
		return nil, err
	}
	m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("startup training: %w", err)
	}
	return m, nil
}
