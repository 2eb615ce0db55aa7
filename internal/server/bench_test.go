package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	learnrisk "repro"
)

// The serving benchmarks compare three ways of pushing concurrent
// single-pair traffic through one model: direct Score calls (no
// coalescing), the micro-batcher with a greedy flush, and the
// micro-batcher with a small linger. Run them with:
//
//	go test -run '^$' -bench BenchmarkServe -benchmem ./internal/server
//
// ns/op is per scored pair; pairs/flush is the coalescing each
// configuration achieved.

func benchPairs(b *testing.B, w *learnrisk.Workload, n int) []learnrisk.Pair {
	pairs := make([]learnrisk.Pair, n)
	for i := range pairs {
		l, r := w.PairValues((i * 13) % w.Size())
		pairs[i] = learnrisk.Pair{Left: l, Right: r}
	}
	return pairs
}

func BenchmarkServeUnbatched(b *testing.B) {
	w, m := trainedModel(b, 7)
	pairs := benchPairs(b, w, 256)
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := pairs[int(next.Add(1))%len(pairs)]
			if _, err := m.Score(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func benchmarkBatched(b *testing.B, maxBatch int, linger time.Duration) {
	w, m := trainedModel(b, 7)
	pairs := benchPairs(b, w, 256)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	bt := NewBatcher(&ptr, maxBatch, linger)
	defer bt.Close()
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := pairs[int(next.Add(1))%len(pairs)]
			if _, _, err := bt.Submit(context.Background(), p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	flushes, scored := bt.Flushes()
	if flushes > 0 {
		b.ReportMetric(float64(scored)/float64(flushes), "pairs/flush")
	}
}

func BenchmarkServeMicroBatchedGreedy(b *testing.B) {
	benchmarkBatched(b, 64, 0)
}

// The linger variant sizes MaxBatch to the client parallelism, the tuning
// a saturated deployment wants: a full batch flushes immediately and a
// lone request never waits, so the linger only delays a batch that found
// company but is not yet full.
func BenchmarkServeMicroBatchedLinger(b *testing.B) {
	benchmarkBatched(b, 8, 500*time.Microsecond)
}
