package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	learnrisk "repro"
)

// trainedModel trains one small model per option set and caches it across
// tests (training dominates test wall-clock otherwise).
var modelCache sync.Map // seed -> *learnrisk.Model

func trainedModel(t testing.TB, seed uint64) (*learnrisk.Workload, *learnrisk.Model) {
	t.Helper()
	w, err := learnrisk.Generate("DS", 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := modelCache.Load(seed); ok {
		return w, m.(*learnrisk.Model)
	}
	m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{
		RiskEpochs: 120, ClassifierEpochs: 12, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelCache.Store(seed, m)
	return w, m
}

func freshPair(w *learnrisk.Workload, i int) learnrisk.Pair {
	l, r := w.PairValues(i % w.Size())
	return learnrisk.Pair{Left: l, Right: r}
}

// TestBatcherEquivalence is the acceptance criterion's core: every request
// hammered through the micro-batcher from many goroutines gets exactly one
// response, and its score is bit-identical to calling Model.Score directly.
// Run under -race by `make race`.
func TestBatcherEquivalence(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 16, time.Millisecond)
	defer b.Close()

	const goroutines = 16
	const perG = 40
	var wg sync.WaitGroup
	var responses atomic.Int64
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				pair := freshPair(w, g*perG+i)
				got, fp, err := b.Submit(context.Background(), pair)
				if err != nil {
					errs <- err
					return
				}
				responses.Add(1)
				if fp != m.Fingerprint() {
					t.Errorf("fingerprint %.12s, want %.12s", fp, m.Fingerprint())
				}
				want, err := m.Score(pair)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					t.Errorf("batched score %+v != direct %+v", got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := responses.Load(); got != goroutines*perG {
		t.Fatalf("%d responses for %d requests", got, goroutines*perG)
	}
	flushes, pairs := b.Flushes()
	if pairs != goroutines*perG {
		t.Fatalf("batcher scored %d pairs, want %d", pairs, goroutines*perG)
	}
	if flushes <= 0 || flushes > pairs {
		t.Fatalf("flushes = %d for %d pairs", flushes, pairs)
	}
	t.Logf("coalescing: %d pairs in %d flushes (%.1f pairs/flush)",
		pairs, flushes, float64(pairs)/float64(flushes))
}

// TestBatcherCoalesces pins that concurrent requests actually share
// flushes — with 32 requests in flight and linger room, the batcher must
// do materially better than one flush per pair.
func TestBatcherCoalesces(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 32, 20*time.Millisecond)
	defer b.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(context.Background(), freshPair(w, i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	flushes, pairs := b.Flushes()
	if pairs != n {
		t.Fatalf("scored %d pairs, want %d", pairs, n)
	}
	if flushes > n/2 {
		t.Errorf("%d flushes for %d concurrent pairs: no coalescing happened", flushes, n)
	}
}

// TestBatcherRejectsBadPairBeforeBatching: a malformed pair fails its own
// request with an arity error and never poisons a batch.
func TestBatcherRejectsBadPairBeforeBatching(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 8, time.Millisecond)
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, _, err := b.Submit(context.Background(), learnrisk.Pair{Left: []string{"short"}}); err == nil {
					t.Error("truncated pair should fail")
				}
				return
			}
			if _, _, err := b.Submit(context.Background(), freshPair(w, i)); err != nil {
				t.Errorf("good pair failed: %v", err)
			}
		}(i)
	}
	wg.Wait()
}

// TestBatcherSubmitContextCancel: a canceled submitter returns promptly
// with the context error and the batcher survives.
func TestBatcherSubmitContextCancel(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 64, 50*time.Millisecond)
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Submit(ctx, freshPair(w, 0)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The loop is still alive and serving.
	if _, _, err := b.Submit(context.Background(), freshPair(w, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherCloseDrains: Close answers everything accepted before it and
// rejects everything after with ErrClosed.
func TestBatcherCloseDrains(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 16, 5*time.Millisecond)

	const n = 32
	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(context.Background(), freshPair(w, i)); err == nil {
				answered.Add(1)
			} else if err != ErrClosed {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait() // all submitted before Close: every one must be answered
	b.Close()
	if got := answered.Load(); got != n {
		t.Fatalf("answered %d of %d pre-Close requests", got, n)
	}
	if _, _, err := b.Submit(context.Background(), freshPair(w, 0)); err != ErrClosed {
		t.Fatalf("post-Close Submit err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestHotSwapUnderLoad is the zero-dropped-requests criterion: while N
// goroutines hammer the batcher, the model is swapped repeatedly between
// two distinct artifacts. Every request must be answered exactly once,
// with a score bit-identical to direct Score on whichever model its
// fingerprint names.
func TestHotSwapUnderLoad(t *testing.T) {
	w, mA := trainedModel(t, 7)
	_, mB := trainedModel(t, 11) // same schema, different weights
	if mA.Fingerprint() != mB.Fingerprint() {
		t.Fatal("test premise: both models share the schema fingerprint")
	}

	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(mA)
	b := NewBatcher(&ptr, 16, time.Millisecond)
	defer b.Close()

	stop := make(chan struct{})
	var swaps atomic.Int64
	go func() {
		models := [2]*learnrisk.Model{mA, mB}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ptr.Store(models[i%2])
			swaps.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const goroutines = 12
	const perG = 30
	var wg sync.WaitGroup
	var answered atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				pair := freshPair(w, g*perG+i)
				got, _, err := b.Submit(context.Background(), pair)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				answered.Add(1)
				// The fingerprint cannot identify the snapshot (both models
				// share the schema), so check against both: the verdict must
				// be bit-identical to one of the two artifacts' direct Score.
				wantA, errA := mA.Score(pair)
				wantB, errB := mB.Score(pair)
				if errA != nil || errB != nil {
					t.Errorf("direct score: %v %v", errA, errB)
					return
				}
				if got != wantA && got != wantB {
					t.Errorf("swapped score %+v matches neither model (%+v / %+v)", got, wantA, wantB)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if got := answered.Load(); got != goroutines*perG {
		t.Fatalf("answered %d of %d requests across %d swaps", got, goroutines*perG, swaps.Load())
	}
	if swaps.Load() < 2 {
		t.Fatalf("only %d swaps happened; the test did not exercise hot-swap", swaps.Load())
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBatcherSubmitAlloc pins the allocations of one lone request through
// a greedy batcher, counted across both goroutines. The two left are the
// Submit side's buffered response channel (header and buffer). The flush
// itself allocates nothing: it reuses the loop's batch and pair buffers
// and scores a lone pair with Model.Score.
func TestBatcherSubmitAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 64, 0)
	defer b.Close()
	pair := freshPair(w, 0)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := b.Submit(ctx, pair); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("lone Submit = %.1f allocs, want <= 2", allocs)
	}
}

// TestBatcherLoneRequestSkipsLinger: a request that finds the queue empty
// flushes at once, however long MaxLinger is. With an hour of linger, a
// batcher that lingered on a lone request would hit the deadline.
func TestBatcherLoneRequestSkipsLinger(t *testing.T) {
	w, m := trainedModel(t, 7)
	var ptr atomic.Pointer[learnrisk.Model]
	ptr.Store(m)
	b := NewBatcher(&ptr, 64, time.Hour)
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pair := freshPair(w, 3)
	got, _, err := b.Submit(ctx, pair)
	if err != nil {
		t.Fatalf("lone Submit under an hour of linger: %v", err)
	}
	if want, _ := m.Score(pair); got != want {
		t.Fatalf("score %+v, want %+v", got, want)
	}
}

// TestBatcherCompanyLingers drives collect directly (no scoring loop) so
// the policy is observed without races: a drain that finds company waits
// for more until the batch is full, and a greedy batcher never waits.
func TestBatcherCompanyLingers(t *testing.T) {
	const maxBatch = 4
	newQueue := func(linger time.Duration) *Batcher {
		return &Batcher{reqs: make(chan pending, maxBatch), maxBatch: maxBatch, linger: linger}
	}
	collected := func(b *Batcher, queued int) chan []pending {
		for i := 0; i < queued; i++ {
			b.reqs <- pending{}
		}
		out := make(chan []pending, 1)
		go func() { out <- b.collect([]pending{{}}) }()
		return out
	}

	b := newQueue(time.Hour)
	out := collected(b, 1) // first + one queued: company
	select {
	case batch := <-out:
		t.Fatalf("a batch with company flushed at %d pairs without lingering", len(batch))
	case <-time.After(20 * time.Millisecond):
	}
	b.reqs <- pending{}
	b.reqs <- pending{}
	select {
	case batch := <-out:
		if len(batch) != maxBatch {
			t.Fatalf("lingering batch flushed at %d pairs, want %d", len(batch), maxBatch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a full batch did not flush")
	}

	// A batch with company lingers only up to MaxLinger, reusing the timer.
	b = newQueue(time.Millisecond)
	for round := 0; round < 3; round++ {
		if batch := <-collected(b, 1); len(batch) != 2 {
			t.Fatalf("round %d: linger expiry flushed %d pairs, want 2", round, len(batch))
		}
	}

	b = newQueue(0)
	select {
	case batch := <-collected(b, 1):
		if len(batch) != 2 {
			t.Fatalf("greedy batch = %d pairs, want 2", len(batch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a greedy batcher lingered")
	}
}
