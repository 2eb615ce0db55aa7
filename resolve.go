package learnrisk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/featstore"
	"repro/internal/match"
	"repro/internal/obs"
)

// The online resolve path: a trained Model plus a match.Store answer "here
// is a new record — who does it match?" without batch rebuilds. Candidates
// come from the store's incremental blocking index, and every (probe,
// candidate) pair gets its metric row and classifier probability through
// the same pooled zero-allocation scratch Score uses. A bounded top-k heap
// keeps the k most probable candidates, and only those k get the full
// verdict (rule firings and risk assessment).

// Trace is a request-scoped stage timer (an alias for obs.Trace, see
// MatchConfig for the aliasing rationale). A nil *Trace disables all
// recording, so serving layers thread the pointer unconditionally.
type Trace = obs.Trace

// MatchResult is one resolved match: the stable store ID of the candidate
// record and the full serving-path verdict of the (probe, candidate) pair.
// Results rank by classifier probability, ties toward the lower ID.
type MatchResult struct {
	ID    uint64
	Score PairScore
}

// MatchConfig configures an online match store (blocking semantics and
// index maintenance). It aliases the implementation's config so callers
// outside this module can name it — the implementation lives under
// internal/, which import rules would otherwise make unreachable.
type MatchConfig = match.Config

// MatchStore is the online record store + incremental blocking index
// behind Resolve (an alias, see MatchConfig). Safe for concurrent use.
type MatchStore = match.Store

// NewMatchStore builds an empty online record store bound to the model's
// schema arity. Records added to it must carry one value per schema
// attribute, in training order — the same contract as Pair.
func (m *Model) NewMatchStore(cfg MatchConfig) (*MatchStore, error) {
	return match.New(len(m.attrs), cfg)
}

// DurableMatchOptions configures the durability layer (an alias, see
// MatchConfig).
type DurableMatchOptions = match.DurableOptions

// resolveScratch is one resolve worker's reusable state: the probe scratch
// of the candidate index, the scoring scratch of the zero-alloc path, the
// per-probe candidate buffers (record IDs and the value slices fetched
// with them) and the bounded top-k heap.
type resolveScratch struct {
	ps     match.ProbeScratch
	ss     *scoreScratch
	ids    []uint64
	kept   []uint64
	vals   [][]string
	topk   match.TopK
	sorted []match.Scored
}

func (m *Model) acquireResolveScratch() *resolveScratch {
	if s, ok := m.resolvePool.Get().(*resolveScratch); ok {
		return s
	}
	return &resolveScratch{ss: m.acquireScratch()}
}

// releaseResolveScratch returns a scratch to the pool after dropping its
// references to candidate values, so a pooled scratch does not keep
// deleted records alive.
func (m *Model) releaseResolveScratch(s *resolveScratch) {
	clear(s.vals)
	s.vals = s.vals[:0]
	m.resolvePool.Put(s)
}

// checkResolve validates the store binding and one probe. Probe arity
// failures wrap ErrPairArity (a client error to serving layers).
func (m *Model) checkResolve(st *MatchStore, probe []string, k int) error {
	if st == nil {
		return errors.New("learnrisk: Resolve needs a match store (build one with NewMatchStore)")
	}
	if st.Arity() != len(m.attrs) {
		return fmt.Errorf("learnrisk: match store arity %d does not match the model schema's %d", st.Arity(), len(m.attrs))
	}
	if k <= 0 {
		return fmt.Errorf("learnrisk: Resolve needs k > 0, got %d", k)
	}
	if len(probe) != len(m.attrs) {
		return fmt.Errorf("learnrisk: probe has %d attribute values, model schema has %d (%s...): %w",
			len(probe), len(m.attrs), m.attrs[0].Name, ErrPairArity)
	}
	return nil
}

// Resolve finds the k best-scoring matches for one probe record among the
// store's live records: the incremental blocking index generates the
// candidate set (identical to a from-scratch batch blocking run over the
// surviving records), every candidate's classifier probability is computed
// on the zero-alloc serving path with the probe-side preparation cached
// across candidates, a bounded heap keeps the k highest probabilities (ties
// toward the lower record ID), and those k get the full risk verdict.
// Fewer than k results means fewer candidates shared enough blocking
// tokens. Safe for concurrent use, including concurrently with Add/Delete
// on the store.
func (m *Model) Resolve(st *MatchStore, probe []string, k int) ([]MatchResult, error) {
	return m.ResolveTraced(st, probe, k, nil)
}

// ResolveTraced is Resolve with request-scoped stage timing: candidate
// generation on StageProbeTokenize, per-candidate scoring and the winners'
// verdicts on StageScore, and the bounded-heap ranking on StageTopKMerge. A
// nil trace records nothing and takes no timestamps.
func (m *Model) ResolveTraced(st *MatchStore, probe []string, k int, tr *Trace) ([]MatchResult, error) {
	if err := m.checkResolve(st, probe, k); err != nil {
		return nil, err
	}
	s := m.acquireResolveScratch()
	m.rankInto(st, probe, k, nil, s, tr)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// Verdicts for the winners only, from the value slices fetched while
	// ranking: a winner deleted since keeps its verdict, and scorePair is
	// deterministic, so each Prob is bit-identical to the rank it won by.
	out := make([]MatchResult, len(s.sorted))
	for i, e := range s.sorted {
		out[i] = MatchResult{ID: s.kept[e.ID], Score: m.scorePair(Pair{Left: probe, Right: s.vals[e.ID]}, s.ss)}
	}
	if tr != nil {
		tr.Observe(obs.StageScore, t0)
	}
	m.releaseResolveScratch(s)
	return out, nil
}

// rankInto is the shared resolve core: candidates from the incremental
// index (minus the skip list's globally pruned stop tokens), each ranked by
// its classifier probability alone (metric row, then classifier; no rule
// firings, no risk assessment), the k most probable retained. It leaves the
// ranking in the scratch: s.sorted holds scratch positions best-first with
// their probabilities, and s.kept/s.vals map a position back to the record
// ID and the values it was scored on.
func (m *Model) rankInto(st *MatchStore, probe []string, k int, skip []string, s *resolveScratch, tr *Trace) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var err error
	s.ids, err = st.AppendCandidatesSkip(s.ids[:0], probe, &s.ps, skip)
	if err != nil {
		// Unreachable: AppendCandidatesSkip's only failure is its arity
		// check, and checkResolve pinned the probe's arity to the store's
		// before any resolve work started. The store's arity is immutable.
		panic("learnrisk: resolve invariant violated: " + err.Error())
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageProbeTokenize, now.Sub(t0))
		t0 = now
	}
	s.topk.Reset(k)
	s.kept = s.kept[:0]
	s.vals = s.vals[:0]
	ss := s.ss
	for _, id := range s.ids {
		vals, ok := st.Get(id)
		if !ok {
			continue // deleted between probe and fetch; skip
		}
		ss.row = featstore.ComputeRowAppend(m.cat, ss.row[:0], probe, vals, ss.fs)
		prob := m.matcher.ProbRowScratch(ss.row, ss.prob)
		pos := uint64(len(s.kept))
		s.kept = append(s.kept, id)
		s.vals = append(s.vals, vals)
		// Candidates arrive in ascending ID order, so the scratch position
		// preserves the ID tie-break.
		s.topk.Offer(match.Scored{ID: pos, Rank: prob})
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageScore, now.Sub(t0))
		t0 = now
	}
	s.sorted = s.topk.AppendSorted(s.sorted[:0])
	if tr != nil {
		tr.Add(obs.StageTopKMerge, time.Since(t0))
	}
}
