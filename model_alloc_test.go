package learnrisk

import (
	"testing"
)

// Allocation-regression guards for the serving hot path (run by `make
// tier1` via `make allocs` / `make test`). The contracts:
//
//   - steady-state Model.Score: 0 allocs/op — the pooled scoreScratch
//     absorbs every buffer the pair evaluation touches;
//   - steady-state Model.ScoreBatch: a small per-call bound that does NOT
//     grow with the batch size (the result slice plus the internal/par
//     chunk dispatch), zero allocations per pair;
//   - steady-state Model.Resolve and ResolveShard: 1 alloc/op, the result
//     slice — candidate generation, ranking and the winners' verdicts all
//     run inside the pooled resolve scratch.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measurement, which
// makes the ScoreBatch bound deterministic (no worker goroutine spawns);
// the parallel path's extra cost is O(workers) goroutines per call, also
// independent of the batch size.

// scoreBatchAllocBound is the documented per-call allocation budget of
// ScoreBatch at GOMAXPROCS=1: the result slice, the chunk closure, and
// pool bookkeeping. Raising it requires a PERFORMANCE.md update.
const scoreBatchAllocBound = 8

func allocModelAndPairs(t *testing.T) (*Model, []Pair) {
	t.Helper()
	w, m := trainedModel(t)
	n := w.Size()
	if n > 64 {
		n = 64
	}
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		l, r := w.PairValues(i)
		pairs[i] = Pair{Left: l, Right: r}
	}
	return m, pairs
}

func TestScoreSteadyStateAllocs(t *testing.T) {
	m, pairs := allocModelAndPairs(t)
	for _, p := range pairs { // warm the pooled scratch buffers
		if _, err := m.Score(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Score(pairs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Score allocates %v/op, want 0", allocs)
	}
	// Across distinct pairs too (no side-cache crutch).
	allocs = testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			if _, err := m.Score(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Score over %d distinct pairs allocates %v per cycle, want 0", len(pairs), allocs)
	}
}

func TestScoreBatchSteadyStateAllocs(t *testing.T) {
	m, pairs := allocModelAndPairs(t)
	if _, err := m.ScoreBatch(pairs); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ScoreBatch(pairs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > scoreBatchAllocBound {
		t.Fatalf("steady-state ScoreBatch(%d pairs) allocates %v/call, bound %d", len(pairs), allocs, scoreBatchAllocBound)
	}
	// The bound must not scale with batch size: double the batch, same cap.
	double := append(append([]Pair(nil), pairs...), pairs...)
	if _, err := m.ScoreBatch(double); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := m.ScoreBatch(double); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > scoreBatchAllocBound {
		t.Fatalf("steady-state ScoreBatch(%d pairs) allocates %v/call, bound %d", len(double), allocs, scoreBatchAllocBound)
	}
}

func TestResolveSteadyStateAllocs(t *testing.T) {
	w, m, st, _ := resolveFixture(t)
	// Probes with at least one match: an empty result slice is not an
	// allocation, and the pin is exactly one.
	var probes [][]string
	for _, r := range w.inner.Left.Records {
		res, err := m.Resolve(st, r.Values, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			probes = append(probes, r.Values)
		}
		if len(probes) == 4 {
			break
		}
	}
	if len(probes) == 0 {
		t.Fatal("fixture has no probe with a match")
	}
	paths := []struct {
		name    string
		resolve func(probe []string) error
	}{
		{"Resolve", func(probe []string) error { _, err := m.Resolve(st, probe, 5); return err }},
		{"ResolveShard", func(probe []string) error { _, err := m.ResolveShard(st, probe, 5, nil); return err }},
	}
	for _, p := range paths {
		for _, probe := range probes { // warm the pooled scratch buffers
			if err := p.resolve(probe); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, probe := range probes {
				if err := p.resolve(probe); err != nil {
					t.Fatal(err)
				}
			}
		})
		if want := float64(len(probes)); allocs != want {
			t.Fatalf("steady-state %s over %d probes allocates %v per cycle, want %v (the result slices)", p.name, len(probes), allocs, want)
		}
	}
}
