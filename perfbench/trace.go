package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	learnrisk "repro"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span whose interval covers this one.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span. On a nil recorder begin and end do nothing, not
// even read the clock, so a replay runs untraced.
func (r *recorder) begin(name string, req int) span {
	if r == nil {
		return span{}
	}
	return span{Req: req, Name: name, Start: int64(time.Since(r.t0))}
}

func (r *recorder) end(s span) span {
	if r == nil {
		return s
	}
	s.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// write appends the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		_ = enc.Encode(s)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanUs is the mean duration in µs of the spans named name.
func (r *recorder) meanUs(name string) float64 {
	sum, n := 0.0, 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += float64(s.dur()) / float64(time.Microsecond)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanCount is the mean Count of the spans named name.
func (r *recorder) meanCount(name string) float64 {
	sum, n := 0, 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.Count
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// selfUs is the mean self time in µs of the spans named name: each span's
// duration less the part of its interval covered by its children (spans
// of the same request whose Parent is name).
func (r *recorder) selfUs(name string) float64 {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent == name {
			kids[s.Req] = append(kids[s.Req], s)
		}
	}
	sum, n := 0.0, 0
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		sum += float64(s.dur()-covered(s, kids[s.Req])) / float64(time.Microsecond)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// replayOps is the number of requests each layer depth replays: the first
// ops of the same seeded sequence the end-to-end window began with.
const replayOps = 800

// depth replays the op sequence at one layer depth on freshly built state,
// recording spans into rec (nil: none), and returns the replay loop's wall
// time, state building excluded.
type depth func(rec *recorder) (time.Duration, error)

// replayPasses is the order of a depth's replays, true for a traced one.
// Alternating cancels a drift of the host's speed across the passes.
var replayPasses = []bool{false, true, false, true, false}

// replayLayers replays the workload's request sequence at every layer
// depth, each time on freshly rebuilt identical state, one request at a
// time so child spans nest exactly inside their parents. Each depth runs
// replayPasses. The traced passes give the layer figures. Their mean loop
// time, summed over the depths, against the untraced passes' median is
// the cost of recording the spans ("trace.overhead_share"); the range of
// the untraced passes is the noise it is measured against
// ("trace.noise_share"). "trace.direct_share" is the same cost predicted
// from the time one span takes to record, times the spans of a pass.
// "recon.layers_ms" is the mean of the outermost
// in-process span, the sum of the self times below it.
func (r *servingRun) replayLayers() (map[string]float64, error) {
	src := newOpSource(r.in, r.spec.mix, r.cfg.seed, 0)
	ops, err := src.next(replayOps)
	if err != nil {
		return nil, err
	}
	var (
		depths []depth
		layers func(*recorder) map[string]float64
	)
	switch r.cfg.workload {
	case "score":
		depths, layers = scoreDepths(r.in, ops)
	case "resolve":
		depths, layers = resolveDepths(r.in, ops)
	case "ingest":
		depths, layers = ingestDepths(r.in, ops, filepath.Join(r.cfg.runDir, "data"))
	}
	rec := newRecorder()
	sums := make([]float64, len(replayPasses))
	for _, d := range depths {
		for p, traced := range replayPasses {
			var pr *recorder
			if traced {
				pr = rec
			}
			t, err := d(pr)
			if err != nil {
				return nil, err
			}
			sums[p] += float64(t)
		}
	}
	var plain, traced []float64
	for p, isTraced := range replayPasses {
		if isTraced {
			traced = append(traced, sums[p])
		} else {
			plain = append(plain, sums[p])
		}
	}
	sort.Float64s(plain)
	base := median(plain)
	vals := layers(rec)
	vals["trace.overhead_share"] = mean(traced)/base - 1
	vals["trace.noise_share"] = (plain[len(plain)-1] - plain[0]) / base
	perPass := len(rec.spans) / len(traced)
	vals["trace.direct_share"] = float64(spanCost()) * float64(perPass) / base
	return vals, rec.write(filepath.Join(r.cfg.runDir, "spans-layers.jsonl"))
}

// httpCall issues one op through a handler in-process.
func httpCall(h http.Handler, o *op) int {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code
}

// spanCost times begin/end pairs on a scratch recorder: the direct cost
// of recording one span, without the cache and GC effects a replay adds.
func spanCost() time.Duration {
	const n = 100000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("span", i))
	}
	return time.Since(start) / n
}

// loopStart collects the garbage that building the state left, so every
// timed replay loop starts from the same heap, and returns the start time.
func loopStart() time.Time {
	runtime.GC()
	return time.Now()
}

// errMissed fails a replay whose delete found no record: the sequence
// deletes only distinct warm-loaded records.
func errMissed(id uint64) error {
	return fmt.Errorf("delete of live record %d found nothing", id)
}

// replayServer replays ops on srv at one of the two server depths: 1 is
// Handler().ServeHTTP ("server.handler" spans), 2 the Server methods
// ("server.method" spans).
func replayServer(srv *server.Server, in *inputs, ops []op, rec *recorder, depth int) (time.Duration, error) {
	h := srv.Handler()
	start := loopStart()
	for i := range ops {
		o := &ops[i]
		var err error
		if depth == 1 {
			sp := rec.begin("server.handler", i)
			sp.Kind = o.kind.String()
			code := httpCall(h, o)
			rec.end(sp)
			if code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
		} else {
			found := true
			sp := rec.begin("server.method", i)
			sp.Kind = o.kind.String()
			switch o.kind {
			case opScore:
				_, _, err = srv.Score(context.Background(), in.pairs[o.arg])
			case opResolve:
				_, _, _, err = srv.Resolve(in.held[o.arg], resolveK)
			case opAdd:
				_, err = srv.AddRecord(in.held[o.arg])
			case opDelete:
				found, err = srv.DeleteRecord(o.id)
			}
			rec.end(sp)
			if err == nil && !found {
				err = errMissed(o.id)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("replay depth %d, %s #%d: %w", depth, o.kind, i, err)
		}
	}
	return time.Since(start), nil
}

func scoreDepths(in *inputs, ops []op) ([]depth, func(*recorder) map[string]float64) {
	server12 := func(d int) depth {
		return func(rec *recorder) (time.Duration, error) {
			srv := server.New(in.model, server.Config{MaxBatch: 64, MaxLinger: 2 * time.Millisecond})
			defer srv.Close()
			return replayServer(srv, in, ops, rec, d)
		}
	}
	var batchNs time.Duration
	facade := func(rec *recorder) (time.Duration, error) {
		pairs := make([]learnrisk.Pair, len(ops))
		for i := range ops {
			pairs[i] = in.pairs[ops[i].arg]
		}
		start := loopStart()
		for i := range pairs {
			sp := rec.begin("facade.score", i)
			_, err := in.model.Score(pairs[i])
			rec.end(sp)
			if err != nil {
				return 0, err
			}
		}
		var batch time.Duration
		for lo := 0; lo < len(pairs); lo += 64 {
			hi := min(lo+64, len(pairs))
			sp := rec.begin("facade.score_batch", lo)
			_, err := in.model.ScoreBatch(pairs[lo:hi])
			batch += rec.end(sp).dur()
			if err != nil {
				return 0, err
			}
		}
		if rec != nil {
			batchNs = batch
		}
		return time.Since(start), nil
	}
	layers := func(rec *recorder) map[string]float64 {
		handler, method, facade := rec.meanUs("server.handler"), rec.meanUs("server.method"), rec.meanUs("facade.score")
		return map[string]float64{
			"server.handler_self_us":         handler - method,
			"server.batch_wait_us":           method - facade,
			"facade.score_us":                facade,
			"facade.score_batch_us_per_pair": float64(batchNs) / float64(time.Microsecond) / float64(len(ops)),
			"recon.layers_ms":                handler / 1000,
		}
	}
	return []depth{server12(1), server12(2), facade}, layers
}

func resolveDepths(in *inputs, ops []op) ([]depth, func(*recorder) map[string]float64) {
	server12 := func(d int) depth {
		return func(rec *recorder) (time.Duration, error) {
			srv := server.New(in.model, server.Config{})
			defer srv.Close()
			for _, v := range in.warm {
				if _, err := srv.AddRecord(v); err != nil {
					return 0, err
				}
			}
			return replayServer(srv, in, ops, rec, d)
		}
	}
	// Depths 3 and 4: Model.Resolve on a match store, then the store's
	// candidate generation alone. Writes go to the store at both depths so
	// the state stays identical; their spans come from depth 3.
	var compactions, tombstones float64
	store := func(d int) depth {
		return func(rec *recorder) (time.Duration, error) {
			st, err := in.model.NewMatchStore(learnrisk.MatchConfig{})
			if err != nil {
				return 0, err
			}
			for _, v := range in.warm {
				if _, err := st.Add(v); err != nil {
					return 0, err
				}
			}
			warm := st.Stats()
			var ps match.ProbeScratch
			var cands []uint64
			start := loopStart()
			for i := range ops {
				o := &ops[i]
				switch {
				case o.kind == opResolve && d == 3:
					sp := rec.begin("facade.resolve", i)
					_, err = in.model.Resolve(st, in.held[o.arg], resolveK)
					rec.end(sp)
				case o.kind == opResolve:
					sp := rec.begin("match.candidates", i)
					cands, err = st.AppendCandidates(cands[:0], in.held[o.arg], &ps)
					sp.Count = len(cands)
					rec.end(sp)
				case o.kind == opAdd:
					sp := rec.begin("match.add", i)
					_, err = st.Add(in.held[o.arg])
					if d == 3 {
						rec.end(sp)
					}
				case o.kind == opDelete:
					sp := rec.begin("match.delete", i)
					found := st.Delete(o.id)
					if d == 3 {
						rec.end(sp)
					}
					if !found {
						err = errMissed(o.id)
					}
				}
				if err != nil {
					return 0, fmt.Errorf("replay depth %d, %s #%d: %w", d, o.kind, i, err)
				}
			}
			elapsed := time.Since(start)
			if d == 3 && rec != nil {
				end := st.Stats()
				compactions = float64(end.Compactions - warm.Compactions)
				tombstones = float64(end.Tombstones)
			}
			return elapsed, nil
		}
	}
	layers := func(rec *recorder) map[string]float64 {
		facade := rec.meanUs("facade.resolve")
		cands := rec.meanUs("match.candidates")
		perProbe := rec.meanCount("match.candidates")
		vals := map[string]float64{
			"server.handler_self_us":     rec.meanUs("server.handler") - rec.meanUs("server.method"),
			"facade.resolve_us":          facade,
			"match.candidates_us":        cands,
			"match.candidates_per_probe": perProbe,
			"match.add_us":               rec.meanUs("match.add"),
			"match.delete_us":            rec.meanUs("match.delete"),
			"match.compactions":          compactions,
			"match.tombstones":           tombstones,
			"recon.layers_ms":            rec.meanUs("server.handler") / 1000,
		}
		if perProbe > 0 {
			// The scoring share of a resolve, per candidate scored.
			vals["facade.score_us"] = (facade - cands) / perProbe
		}
		return vals
	}
	return []depth{server12(1), server12(2), store(3), store(4)}, layers
}

// legScorer wraps Model.ResolveShard so each partition leg of a
// scatter-gather resolve is recorded as a child span of the request's
// partition.resolve span.
type legScorer struct {
	m   *learnrisk.Model
	rec *recorder
	req atomic.Int64
}

func (l *legScorer) ResolveShard(st *match.Store, probe []string, k int, skip []string) ([]match.Scored, error) {
	sp := l.rec.begin("facade.resolve_shard", int(l.req.Load()))
	sp.Parent = "partition.resolve"
	out, err := l.m.ResolveShard(st, probe, k, skip)
	l.rec.end(sp)
	return out, err
}

// ingestDurable is the durability configuration the ingest workload's
// server runs with (its -fsync and -snapshot-every flags).
func ingestDurable() (match.DurableOptions, error) {
	policy, interval, err := wal.ParseSyncPolicy(ingestFsync)
	if err != nil {
		return match.DurableOptions{}, err
	}
	return match.DurableOptions{Sync: policy, SyncInterval: interval, SnapshotEvery: ingestSnapEvery}, nil
}

// durableTotals sums the partitions' WAL counters.
func durableTotals(ps *partition.Store) (appends, bytes, syncs int64) {
	for i := 0; i < ps.Partitions(); i++ {
		if l, ok := ps.Partition(i).(*partition.Local); ok && l.Durable() != nil {
			st := l.Durable().DurableStats()
			appends += st.WALAppends
			bytes += st.WALBytes
			syncs += st.WALSyncs
		}
	}
	return
}

// settle waits out the warm-load's background snapshots by cutting one
// more on every partition, then flushes the page cache, so neither lands
// inside a timed replay loop.
func settle(ps *partition.Store) error {
	_, err := ps.Snapshot()
	syscall.Sync()
	return err
}

// ingestDepths replays on durable partitioned stores in fresh directories
// under dataRoot. Snapshot counts and times come from the end-to-end
// window instead, which cuts several times as many.
func ingestDepths(in *inputs, ops []op, dataRoot string) ([]depth, func(*recorder) map[string]float64) {
	dirs := 0
	freshDir := func() (string, error) {
		dirs++
		d := filepath.Join(dataRoot, "replay-"+strconv.Itoa(dirs))
		if err := os.RemoveAll(d); err != nil {
			return "", err
		}
		return d, os.MkdirAll(d, 0o755)
	}
	// Depths 1 and 2 run on the server configuration cmd/serve builds for
	// -partitions 2 -data-dir.
	server12 := func(d int) depth {
		return func(rec *recorder) (elapsed time.Duration, err error) {
			dir, err := freshDir()
			if err != nil {
				return 0, err
			}
			opts, err := ingestDurable()
			if err != nil {
				return 0, err
			}
			ps, err := in.model.OpenDurablePartitionedMatchStore(dir, 2, 1, learnrisk.MatchConfig{}, opts, nil)
			if err != nil {
				return 0, err
			}
			defer func() {
				if cerr := ps.Close(); err == nil {
					err = cerr
				}
			}()
			srv := server.New(in.model, server.Config{Partitions: 2})
			defer srv.Close()
			if err := srv.InstallPartitionedStore(ps); err != nil {
				return 0, err
			}
			for _, v := range in.warm {
				if _, err := srv.AddRecord(v); err != nil {
					return 0, err
				}
			}
			if err := settle(ps); err != nil {
				return 0, err
			}
			return replayServer(srv, in, ops, rec, d)
		}
	}
	// Depth 3: the partitioned store itself, with each partition leg
	// recorded through the scorer.
	var (
		stats      map[string]float64
		st0, st1   partition.Stats
		comp, tomb int64
	)
	store := func(rec *recorder) (elapsed time.Duration, err error) {
		dir, err := freshDir()
		if err != nil {
			return 0, err
		}
		opts, err := ingestDurable()
		if err != nil {
			return 0, err
		}
		legs := &legScorer{m: in.model, rec: rec}
		ps, err := partition.OpenDurable(dir, len(in.model.Schema()), partition.Options{Partitions: 2, Scorer: legs, Durable: opts})
		if err != nil {
			return 0, err
		}
		defer func() {
			if cerr := ps.Close(); err == nil {
				err = cerr
			}
		}()
		for _, v := range in.warm {
			if _, err := ps.Add(v); err != nil {
				return 0, err
			}
		}
		if err := settle(ps); err != nil {
			return 0, err
		}
		a0, b0, s0 := durableTotals(ps)
		st0 = ps.Stats()
		var comp0 int64
		for _, s := range ps.PartitionStats() {
			comp0 += s.Compactions
		}
		start := loopStart()
		for i := range ops {
			o := &ops[i]
			legs.req.Store(int64(i))
			found := true
			switch o.kind {
			case opResolve:
				sp := rec.begin("partition.resolve", i)
				_, err = ps.Resolve(in.held[o.arg], resolveK)
				rec.end(sp)
			case opAdd:
				sp := rec.begin("partition.add", i)
				_, err = ps.Add(in.held[o.arg])
				rec.end(sp)
			case opDelete:
				sp := rec.begin("partition.delete", i)
				found, err = ps.Delete(o.id)
				rec.end(sp)
			}
			if err == nil && !found {
				err = errMissed(o.id)
			}
			if err != nil {
				return 0, fmt.Errorf("replay depth 3, %s #%d: %w", o.kind, i, err)
			}
		}
		elapsed = time.Since(start)
		if rec == nil {
			return elapsed, nil
		}
		a1, b1, s1 := durableTotals(ps)
		st1 = ps.Stats()
		var comp1 int64
		tomb = 0
		for _, s := range ps.PartitionStats() {
			comp1 += s.Compactions
			tomb += s.Tombstones
		}
		comp = comp1 - comp0
		stats = map[string]float64{"wal.appends": float64(a1 - a0)}
		if d := a1 - a0; d > 0 {
			stats["wal.syncs_per_append"] = float64(s1-s0) / float64(d)
			stats["wal.bytes_per_append"] = float64(b1-b0) / float64(d)
		}
		return elapsed, nil
	}
	layers := func(rec *recorder) map[string]float64 {
		vals := map[string]float64{
			"server.handler_self_us":    rec.meanUs("server.handler") - rec.meanUs("server.method"),
			"partition.resolve_us":      rec.meanUs("partition.resolve"),
			"partition.scatter_self_us": rec.selfUs("partition.resolve"),
			"facade.resolve_shard_us":   rec.meanUs("facade.resolve_shard"),
			"partition.add_us":          rec.meanUs("partition.add"),
			"partition.delete_us":       rec.meanUs("partition.delete"),
			"match.compactions":         float64(comp),
			"match.tombstones":          float64(tomb),
			"recon.layers_ms":           rec.meanUs("server.handler") / 1000,
		}
		for k, v := range stats {
			vals[k] = v
		}
		if p := st1.Probes - st0.Probes; p > 0 {
			vals["partition.pruned_tokens_per_probe"] = float64(st1.PrunedTokens-st0.PrunedTokens) / float64(p)
		}
		return vals
	}
	return []depth{server12(1), server12(2), store}, layers
}
