// Package server turns a trained learnrisk.Model into a network service:
// an HTTP JSON API over a dynamic micro-batcher and an atomically
// hot-swappable model artifact.
//
// The micro-batcher is the serving-side counterpart of the train-side
// feature store: concurrent single-pair requests are coalesced into one
// Model.ScoreBatch call, which shards the flush across cores over pooled
// scoring scratch (zero allocations per pair) and serves consecutive
// pairs sharing a record from the scratch's side cache. Batch scores are
// bit-identical to unbatched Model.Score calls — batching changes latency
// and throughput, never verdicts.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	learnrisk "repro"
	"repro/internal/obs"
)

// ErrClosed is returned by Submit after Close: the batcher no longer
// accepts work. Requests accepted before Close are always answered.
var ErrClosed = errors.New("server: batcher closed")

// pending is one in-flight single-pair request: the pair and the channel
// its verdict comes back on. The channel is buffered (capacity 1) and
// receives exactly one send, so the scoring loop never blocks on a
// requester that gave up (context cancellation).
type pending struct {
	pair learnrisk.Pair
	resp chan scored
	// tr, when non-nil, is the submitter's request trace: flush records
	// the enqueue wait (enq to assembly), the batch assembly span and the
	// ScoreBatch duration onto it. enq is only set when tr is.
	tr  *obs.Trace
	enq time.Time
}

// scored is one request's outcome: the verdict and the fingerprint of the
// model that produced it (under hot-swap, requests in one batch share one
// model snapshot).
type scored struct {
	score learnrisk.PairScore
	fp    string
	err   error
}

// Batcher coalesces concurrent single-pair scoring requests into
// Model.ScoreBatch calls. The batch a flush takes starts with a greedy
// drain of everything already queued. A lone request is flushed at once,
// after one scheduler yield that lets already-runnable submitters join:
// under light load no company is coming, so a timer could only add
// latency. A drain that found company (two or more pairs queued together)
// is evidence of concurrent traffic, so that batch lingers for late
// arrivals until it reaches MaxBatch pairs or MaxLinger has passed,
// whichever comes first. Under load, batches form from the backlog that
// builds up while the previous flush is scored.
//
// The model is read through an atomic pointer shared with the Server, so a
// hot swap takes effect at the next flush: batches in flight keep the
// snapshot they started with (the artifact is immutable), and no request
// is ever dropped by a swap.
type Batcher struct {
	model    *atomic.Pointer[learnrisk.Model]
	reqs     chan pending
	maxBatch int
	linger   time.Duration

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // live Submit calls

	stop chan struct{} // closed by Close after the last Submit returns
	done chan struct{} // closed when the scoring loop has exited

	flushes  atomic.Int64 // flushes issued (a lone pair's is a Score call)
	batched  atomic.Int64 // pairs scored through those calls
	maxFlush atomic.Int64 // largest flush observed

	// Scratch owned by the scoring goroutine and reused across flushes:
	// the batch being assembled, the pairs handed to ScoreBatch, a lone
	// pair's verdict and the linger timer (nil until the first batch with
	// company lingers).
	batch []pending
	pairs []learnrisk.Pair
	one   [1]learnrisk.PairScore
	timer *time.Timer
}

// NewBatcher starts a micro-batcher over the given shared model pointer.
// maxBatch < 1 disables coalescing (every request scores alone). linger
// bounds how long a batch that has company waits for more; linger <= 0
// makes every flush greedy: a batch takes whatever is already queued and
// never waits.
func NewBatcher(model *atomic.Pointer[learnrisk.Model], maxBatch int, linger time.Duration) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &Batcher{
		model:    model,
		reqs:     make(chan pending, 4*maxBatch),
		maxBatch: maxBatch,
		linger:   linger,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		batch:    make([]pending, 0, maxBatch),
		pairs:    make([]learnrisk.Pair, 0, maxBatch),
	}
	go b.loop()
	return b
}

// Submit scores one pair through the micro-batcher, blocking until the
// batch it joined is flushed or the context is canceled. A request that
// finds the queue empty is scored at once; one that joins company waits
// at most MaxLinger plus the ScoreBatch time. The returned fingerprint
// identifies the model snapshot that produced the verdict. The score is
// bit-identical to calling Score on that snapshot directly.
func (b *Batcher) Submit(ctx context.Context, pair learnrisk.Pair) (learnrisk.PairScore, string, error) {
	// Reject malformed pairs before they join a batch: one bad request
	// must not cost its batchmates anything. The arity check runs against
	// the current model; flush re-isolates if a swap changes the schema
	// between here and scoring.
	if err := b.model.Load().CheckPair(pair); err != nil {
		return learnrisk.PairScore{}, "", err
	}
	p := pending{pair: pair, resp: make(chan scored, 1)}
	if tr := obs.FromContext(ctx); tr != nil {
		p.tr = tr
		p.enq = time.Now()
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return learnrisk.PairScore{}, "", ErrClosed
	}
	b.wg.Add(1)
	b.mu.Unlock()
	defer b.wg.Done()
	select {
	case b.reqs <- p:
	case <-ctx.Done():
		return learnrisk.PairScore{}, "", ctx.Err()
	}
	select {
	case s := <-p.resp:
		return s.score, s.fp, s.err
	case <-ctx.Done():
		// The loop will still deliver into the buffered channel; only the
		// caller stops waiting.
		return learnrisk.PairScore{}, "", ctx.Err()
	}
}

// Close stops accepting new requests, waits until every accepted request
// has been answered (or its submitter gave up), and shuts the scoring loop
// down. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		b.wg.Wait()
		close(b.stop)
	}
	<-b.done
}

// Flushes returns how many flushes the batcher has issued and how many
// pairs went through them — the coalescing ratio batched/flushes is
// the serving-side analogue of a cache hit rate.
func (b *Batcher) Flushes() (flushes, pairs int64) {
	return b.flushes.Load(), b.batched.Load()
}

// QueueDepth returns how many accepted requests are waiting to join a
// batch right now — the backpressure signal the /debug/vars expvar
// surface exports.
func (b *Batcher) QueueDepth() int { return len(b.reqs) }

// MaxFlush returns the largest flush the batcher has issued — together
// with batched/flushes it characterizes the coalescing the traffic shape
// actually achieves.
func (b *Batcher) MaxFlush() int64 { return b.maxFlush.Load() }

// loop is the single scoring goroutine: collect a batch, snapshot the
// model, flush, repeat. One goroutine means batch assembly needs no locks;
// scoring itself fans out inside ScoreBatch (internal/par).
func (b *Batcher) loop() {
	defer close(b.done)
	for {
		var first pending
		select {
		case first = <-b.reqs:
		case <-b.stop:
			// Drain requests whose submitters were canceled mid-queue; the
			// buffered response channels absorb the sends.
			for {
				select {
				case p := <-b.reqs:
					b.flush(append(b.batch[:0], p))
				default:
					return
				}
			}
		}
		b.flush(b.collect(append(b.batch[:0], first)))
	}
}

// collect grows a batch started by its first request: greedily take
// everything already queued, then, only if that drain found company,
// linger for late arrivals until the batch is full or the linger budget
// is spent. A lone request returns without waiting on the timer.
func (b *Batcher) collect(batch []pending) []pending {
	batch = b.drain(batch)
	if len(batch) == 1 && b.maxBatch > 1 {
		// The send that woke this goroutine scheduled it ahead of any
		// submitters that are runnable but have not run yet, so a lone
		// request may only look lone. Yield once to let them enqueue and
		// drain again; with nothing else runnable the yield returns at
		// once.
		runtime.Gosched()
		batch = b.drain(batch)
	}
	if len(batch) < 2 || b.linger <= 0 || len(batch) >= b.maxBatch {
		return batch
	}
	if b.timer == nil {
		b.timer = time.NewTimer(b.linger)
	} else {
		b.timer.Reset(b.linger)
	}
	// Since Go 1.23 Stop and Reset discard a pending expiry, so the one
	// timer never delivers a stale tick into a later batch's linger.
	defer b.timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.reqs:
			batch = append(batch, p)
		case <-b.timer.C:
			return batch
		}
	}
	return batch
}

// drain appends whatever is already queued to batch, up to MaxBatch.
func (b *Batcher) drain(batch []pending) []pending {
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.reqs:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// flush scores one batch against a single model snapshot and fans the
// verdicts out. If ScoreBatch rejects the batch as a whole (possible when
// a hot swap changed the schema after the Submit-time check), each pair is
// re-scored alone on the same snapshot so errors stay per-request. The
// batch's entries are zeroed afterwards: the reused buffers must not keep
// answered requests' pairs or response channels alive.
func (b *Batcher) flush(batch []pending) {
	m := b.model.Load()
	fp := m.Fingerprint()
	traced := false
	asm := time.Time{}
	for _, p := range batch {
		b.pairs = append(b.pairs, p.pair)
		traced = traced || p.tr != nil
	}
	if traced {
		// One clock read covers the whole batch: each pending's enqueue
		// wait ends here, and the ScoreBatch span starts here. The gap
		// between the first pending's enqueue and now is the assembly span
		// (greedy drain + linger) the whole batch shared.
		asm = time.Now()
		for _, p := range batch {
			p.tr.Add(obs.StageBatchWait, asm.Sub(p.enq))
		}
		if first := batch[0]; first.tr != nil {
			first.tr.Add(obs.StageBatchAssemble, asm.Sub(first.enq))
		}
	}
	b.flushes.Add(1)
	b.batched.Add(int64(len(batch)))
	for {
		cur := b.maxFlush.Load()
		if int64(len(batch)) <= cur || b.maxFlush.CompareAndSwap(cur, int64(len(batch))) {
			break
		}
	}
	var scores []learnrisk.PairScore
	var err error
	if len(batch) == 1 {
		// A lone pair takes Score: the same verdict, without ScoreBatch's
		// result slice and worker fan-out.
		b.one[0], err = m.Score(b.pairs[0])
		scores = b.one[:]
	} else {
		scores, err = m.ScoreBatch(b.pairs)
	}
	clear(b.pairs)
	b.pairs = b.pairs[:0]
	if traced {
		d := time.Since(asm)
		for _, p := range batch {
			p.tr.Add(obs.StageScoreBatch, d)
		}
	}
	if err != nil {
		for _, p := range batch {
			s, serr := m.Score(p.pair)
			p.resp <- scored{score: s, fp: fp, err: serr}
		}
	} else {
		for i, p := range batch {
			p.resp <- scored{score: scores[i], fp: fp}
		}
	}
	clear(batch)
}
