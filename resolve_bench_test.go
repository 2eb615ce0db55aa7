// Online-resolve benchmarks: a warm incremental index probed per record vs
// the naive alternative — rebuilding batch blocking from scratch for every
// probe — at 10k+ stored records. cmd/bench records them into
// BENCH_PR5.json (Makefile bench-pr5): resolve latency (mean, p50, p99),
// candidates per probe, and the warm-vs-rebuild speedup the acceptance
// criterion pins at >= 10x. BenchmarkOnlineResolveAB reproduces the
// perfbench resolve workload's store and probes in-process, for profiling
// the per-candidate scoring kernel without the HTTP harness.
package learnrisk_test

import (
	"context"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	learnrisk "repro"
	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/partition"
)

const resolveBenchK = 10

var (
	resolveOnce   sync.Once
	resolveModel  *learnrisk.Model
	resolveStore  *match.Store
	resolveRight  *dataset.Table
	resolveProbes [][]string
	resolveErr    error
)

// resolveBenchSetup trains one small model and indexes a 10k+-record right
// table (DS profile at scale 0.25: 10354 records) into a warm match store.
// Probes are the corresponding left-table records.
func resolveBenchSetup(b *testing.B) (*learnrisk.Model, *match.Store) {
	b.Helper()
	resolveOnce.Do(func() {
		w, err := learnrisk.Generate("DS", 0.05, 7)
		if err != nil {
			resolveErr = err
			return
		}
		m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: 7})
		if err != nil {
			resolveErr = err
			return
		}
		spec, _ := datagen.ByName("DS", 11)
		big, err := datagen.Generate(spec, 0.25)
		if err != nil {
			resolveErr = err
			return
		}
		st, err := m.NewMatchStore(match.Config{})
		if err != nil {
			resolveErr = err
			return
		}
		for _, r := range big.Right.Records {
			if _, err := st.Add(r.Values); err != nil {
				resolveErr = err
				return
			}
		}
		probes := make([][]string, len(big.Left.Records))
		for i, r := range big.Left.Records {
			probes[i] = r.Values
		}
		resolveModel, resolveStore, resolveRight, resolveProbes = m, st, big.Right, probes
	})
	if resolveErr != nil {
		b.Fatal(resolveErr)
	}
	return resolveModel, resolveStore
}

// reportLatencies turns per-op samples into p50/p99 metrics (microseconds).
func reportLatencies(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	slices.Sort(samples)
	p := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return float64(samples[i].Nanoseconds()) / 1e3
	}
	b.ReportMetric(p(0.50), "p50-us")
	b.ReportMetric(p(0.99), "p99-us")
}

// BenchmarkOnlineResolveWarm10k is the production shape: the index is warm
// and each probe pays only its posting-list walk plus candidate scoring.
func BenchmarkOnlineResolveWarm10k(b *testing.B) {
	m, st := resolveBenchSetup(b)
	probes := resolveProbes
	samples := make([]time.Duration, 0, b.N)
	candidates := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := m.Resolve(st, probes[i%len(probes)], resolveBenchK)
		samples = append(samples, time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		candidates += len(res)
	}
	b.StopTimer()
	reportLatencies(b, samples)
	b.ReportMetric(float64(st.Stats().Candidates)/float64(st.Stats().Probes), "cand/probe")
}

// BenchmarkOnlineResolveRebuildPerProbe10k is the naive baseline the
// incremental index replaces: every probe rebuilds batch blocking from
// scratch over all stored records (blocking.Candidates of a one-record
// left table), then scores and ranks the same candidates the same way.
func BenchmarkOnlineResolveRebuildPerProbe10k(b *testing.B) {
	m, _ := resolveBenchSetup(b)
	right := resolveRight
	probes := resolveProbes
	schema := right.Schema
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := probes[i%len(probes)]
		t0 := time.Now()
		left := &dataset.Table{Schema: schema, Records: []dataset.Record{{ID: "probe", Values: probe}}}
		pairs := blocking.Candidates(left, right, blocking.Config{})
		type scored struct {
			idx int
			sc  learnrisk.PairScore
		}
		results := make([]scored, 0, len(pairs))
		for _, p := range pairs {
			sc, err := m.Score(learnrisk.Pair{Left: probe, Right: right.Records[p.Right].Values})
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, scored{p.Right, sc})
		}
		sort.Slice(results, func(a, c int) bool {
			if results[a].sc.Prob != results[c].sc.Prob {
				return results[a].sc.Prob > results[c].sc.Prob
			}
			return results[a].idx < results[c].idx
		})
		if len(results) > resolveBenchK {
			results = results[:resolveBenchK]
		}
		samples = append(samples, time.Since(t0))
	}
	b.StopTimer()
	reportLatencies(b, samples)
}

var (
	resolveABOnce   sync.Once
	resolveABModel  *learnrisk.Model
	resolveABStore  *learnrisk.PartitionedMatchStore
	resolveABProbes [][]string
	resolveABErr    error
)

// resolveABSetup builds the perfbench resolve workload's state for one
// seed: the AB profile at scale 0.5 trained with that seed, a seeded
// permutation of the right table split in half, the first half added to a
// one-partition store in permutation order (the server's default store
// warm-loaded from the records file), and the held-out half as probes.
func resolveABSetup(b *testing.B) (*learnrisk.Model, *learnrisk.PartitionedMatchStore, [][]string) {
	b.Helper()
	resolveABOnce.Do(func() {
		const seed = 1
		w, err := learnrisk.Generate("AB", 0.5, seed)
		if err != nil {
			resolveABErr = err
			return
		}
		rep, err := learnrisk.RunCtx(context.Background(), w, learnrisk.Options{Seed: seed})
		if err != nil {
			resolveABErr = err
			return
		}
		m := rep.Model()
		ps, err := partition.New(len(m.Schema()), partition.Options{Partitions: 1, Scorer: m})
		if err != nil {
			resolveABErr = err
			return
		}
		perm := rand.New(rand.NewPCG(seed, 1)).Perm(w.NumRightRecords())
		half := len(perm) / 2
		for _, i := range perm[:half] {
			v, _ := w.RightRecordAt(i)
			if _, err := ps.Add(v); err != nil {
				resolveABErr = err
				return
			}
		}
		for _, i := range perm[half:] {
			v, _ := w.RightRecordAt(i)
			resolveABProbes = append(resolveABProbes, v)
		}
		resolveABModel, resolveABStore = m, ps
	})
	if resolveABErr != nil {
		b.Fatal(resolveABErr)
	}
	return resolveABModel, resolveABStore, resolveABProbes
}

// BenchmarkOnlineResolveAB is the perfbench resolve workload's request in
// process: one held-out AB record resolved at k=5 against 13k warm records
// on the server's one-partition store, through the facade call the server
// makes. Profile the scoring kernel with
//
//	go test -run '^$' -bench OnlineResolveAB -cpuprofile cpu.prof .
func BenchmarkOnlineResolveAB(b *testing.B) {
	m, ps, probes := resolveABSetup(b)
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, err := m.ResolvePartitionedTraced(ps, probes[i%len(probes)], 5, nil)
		samples = append(samples, time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLatencies(b, samples)
}
