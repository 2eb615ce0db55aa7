package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"

	learnrisk "repro"
)

// servingSpec is one serving workload: its traffic mix, the nominal
// open-loop rate (about half the capacity measured on a 2-CPU host with
// one CPU per side), the fixed ladder of rates around capacity, the p99
// limit every request kind must meet on a rung, and the server flags.
type servingSpec struct {
	mix      mix
	nominal  float64
	ladder   []float64
	limit    time.Duration
	headline func(opKind) bool
	// headlineName names the headline kind in the report.
	headlineName string
	durable      bool
	args         func(in *inputs, dataDir string) []string
}

// conns is the generator's connection count: at most nproc (2).
const conns = 2

// The ingest server's durability flags. Every op is still framed and
// written to the WAL, but not fsynced: an interval fsync takes the writer
// lock, and on a VM's shared disk its latency moved the write p50 from
// 0.3 ms to 3.8 ms between runs. Snapshot cuts still fsync the sealed
// segment, and a snapshot every 500 logged ops per partition lands
// several of them in each measured window. Small segments keep that
// fsync short: at 8000 a partition's one in-window cut sealed its whole
// warm-load segment under the writer lock, and the write p50 swung from
// 0.3 ms to 2.5 ms between runs.
const (
	ingestFsync     = "never"
	ingestSnapEvery = 500
)

var servingSpecs = map[string]servingSpec{
	// Single-pair scoring on default batcher flags: the micro-batcher and
	// the facade Score path do all the work.
	"score": {
		mix:          mix{opScore: 1},
		nominal:      250,
		ladder:       []float64{650, 700, 750, 800, 850, 900},
		limit:        50 * time.Millisecond,
		headline:     func(k opKind) bool { return k == opScore },
		headlineName: "score",
		args: func(in *inputs, _ string) []string {
			return []string{"-model", in.modelPath, "-max-batch", "64", "-max-linger", "2ms"}
		},
	},
	// Resolve-heavy traffic on the default in-memory flat store:
	// candidate generation and per-candidate scoring dominate.
	"resolve": {
		mix:          mix{opResolve: 0.85, opAdd: 0.10, opDelete: 0.05},
		nominal:      120,
		ladder:       []float64{400, 440, 480, 520, 560, 600},
		limit:        100 * time.Millisecond,
		headline:     func(k opKind) bool { return k == opResolve },
		headlineName: "resolve",
		args: func(in *inputs, _ string) []string {
			return []string{"-model", in.modelPath, "-records", in.recordsPath}
		},
	},
	// Write-heavy traffic on the durable partitioned store: WAL framing,
	// census upkeep, tombstones and snapshot cuts.
	"ingest": {
		mix:          mix{opResolve: 0.20, opAdd: 0.60, opDelete: 0.20},
		nominal:      350,
		ladder:       []float64{1100, 1250, 1400, 1550, 1700, 1850},
		limit:        100 * time.Millisecond,
		headline:     func(k opKind) bool { return k.isWrite() },
		headlineName: "write",
		durable:      true,
		args: func(in *inputs, dataDir string) []string {
			return []string{"-model", in.modelPath, "-records", in.recordsPath,
				"-partitions", "2", "-data-dir", dataDir, "-fsync", ingestFsync, "-snapshot-every", strconv.Itoa(ingestSnapEvery)}
		},
	},
}

const (
	setupRuns  = 15
	warmupDur  = time.Second
	rungDur    = 1500 * time.Millisecond
	readyLimit = 120 * time.Second
	checkEvery = 25 // score: every 25th request's response is checked
	probeSet   = 16 // resolve/ingest: fixed probes compared across a boundary
)

// servingRun holds one serving workload run's state.
type servingRun struct {
	cfg               config
	spec              servingSpec
	in                *inputs
	src               *opSource
	client            *http.Client
	cpu               string
	rep               *report
	srv               *serveChild
	dataDir           string
	attempted, failed int
	checksOK          bool
}

func runServing(cfg config, rep *report) (result, error) {
	spec := servingSpecs[cfg.workload]
	in, err := makeInputs(cfg.runDir, cfg.seed)
	if err != nil {
		return result{}, err
	}
	// One P per sender: a sender blocked in sleep keeps its P, and the
	// other sender and the connections' read loops need one to run.
	runtime.GOMAXPROCS(conns)
	rep.GenProcs = conns
	r := &servingRun{cfg: cfg, spec: spec, in: in, client: newClient(conns), cpu: serverCPU(), rep: rep, checksOK: true}
	r.src = newOpSource(in, spec.mix, cfg.seed, checkEvery)
	rep.SrvCPUs, rep.Conns, rep.RateRPS = r.cpu, conns, spec.nominal
	if r.cpu == "" {
		rep.SrvCPUs = "shared"
	}
	defer func() {
		if r.srv != nil {
			_ = r.srv.stop()
		}
	}()

	// Set-up: exec to /readyz 200, covering model load and warm-load.
	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		d, err := r.start(true)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if i < runs-1 {
			if err := r.srv.stop(); err != nil {
				return result{}, fmt.Errorf("stop after set-up: %w", err)
			}
			r.srv = nil
			if r.spec.durable {
				if err := os.RemoveAll(r.dataDir); err != nil {
					return result{}, err
				}
			}
		}
	}
	if err := r.preCheck(); err != nil {
		return result{}, err
	}
	if _, err := r.window(spec.nominal, warmupDur); err != nil {
		return result{}, err
	}
	before, err := r.srv.scrape(r.client)
	if err != nil {
		return result{}, err
	}
	cpu0, err := procCPU(r.srv.pid)
	if err != nil {
		return result{}, err
	}
	win, err := r.window(spec.nominal, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	cpu1, err := procCPU(r.srv.pid)
	if err != nil {
		return result{}, err
	}
	after, err := r.srv.scrape(r.client)
	if err != nil {
		return result{}, err
	}
	rss, err := procPeakRSSMB(r.srv.pid)
	if err != nil {
		return result{}, err
	}
	ok, failed, throttled := win.counts()
	r.attempted += len(win.outcomes)
	r.failed += failed
	delta := counterDelta(before, after)
	rep.SrvProcs = int(after["runtime_stats_gomaxprocs"])
	if err := r.assertZeros(delta); err != nil {
		r.checksOK = false
		rep.check("FAIL %v", err)
	}

	capacity := 0.0
	if !cfg.trace {
		capacity = r.ladder(win)
	}
	replayRate, err := r.postCheck(win)
	if err != nil {
		return result{}, err
	}

	kinds := map[string]latencySummary{}
	for k := opKind(0); k < numOpKinds; k++ {
		if s := summarize(win.latencies(func(o opKind) bool { return o == k })); s.N > 0 {
			kinds[k.String()] = s
		}
	}
	writes := summarize(win.latencies(opKind.isWrite))
	if writes.N > 0 {
		kinds["write"] = writes
	}
	rep.Kinds = kinds
	head := summarize(win.latencies(spec.headline))
	headMs := sortedMs(win.latencies(spec.headline))
	all := summarize(win.latencies(func(opKind) bool { return true }))
	cpuPerOp := float64(cpu1-cpu0) / math.Max(float64(ok), 1)
	failRatio := float64(r.failed) / math.Max(float64(r.attempted), 1)

	rep.SetupS = setups
	rep.set("setup_s", median(setups), "s")
	for name, s := range kinds {
		if name == "add" || name == "delete" {
			continue
		}
		rep.set(name+"_p50_ms", s.P50Ms, "ms")
		if s.TailPct == 99 || s.TailPct == 99.9 {
			rep.set(name+"_p99_ms", s.P99Ms, "ms")
		} else if s.TailPct > 0 {
			rep.set(fmt.Sprintf("%s_%s_ms", name, pctName(s.TailPct)), s.TailMs, "ms")
		}
	}
	rep.set(spec.headlineName+"_p95_ms", percentile(headMs, 0.95), "ms")
	rep.set("fail_ratio", failRatio, "ratio")
	rep.set("cpu_us_per_op", cpuPerOp, "us")
	rep.set("peak_rss_mb", rss, "MB")
	if !cfg.trace {
		rep.set("capacity_rps", capacity, "1/s")
	}
	rep.set("risk_auroc", in.auroc, "ratio")

	res := result{Correct: r.checksOK && r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if !cfg.trace {
		res.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"p50_ms":        head.P50Ms,
			"cpu_us_per_op": cpuPerOp,
			"peak_rss_mb":   rss,
			"ok_ratio":      1 - failRatio,
			"risk_auroc":    in.auroc,
		})
		return res, nil
	}

	// Traced run: the server stops first so the in-process replays have
	// the CPU to themselves.
	if err := r.srv.stop(); err != nil {
		return result{}, err
	}
	r.srv = nil
	vals := map[string]float64{
		"server.throttled":           float64(throttled),
		"match.replay_records_per_s": replayRate,
		"train.classifier_s":         in.train.Classifier,
		"train.rules_s":              in.train.Rules,
		"train.risk_s":               in.train.Risk,
		"train.eval_s":               in.train.Eval,
	}
	late := win.lateness()
	if len(late) > 0 {
		vals["loadgen.late_p99_ms"] = durMs(late[int(math.Ceil(0.99*float64(len(late))))-1])
	}
	vals["loadgen.backlog_max"] = float64(win.backlogMax)
	vals["loadgen.score_p50_ms"] = kinds["score"].P50Ms
	vals["loadgen.resolve_p50_ms"] = kinds["resolve"].P50Ms
	vals["loadgen.resolve_p99_ms"] = kinds["resolve"].P99Ms
	vals["loadgen.write_p50_ms"] = kinds["write"].P50Ms
	vals["loadgen.write_p99_ms"] = kinds["write"].P99Ms
	if f := delta["batcher_flushes"]; f > 0 {
		vals["server.batch_pairs_mean"] = delta["batcher_batched_pairs"] / f
	}
	if ok > 0 {
		vals["runtime.gc_cycles_per_kop"] = delta["runtime_stats_gc_cycles"] * 1000 / float64(ok)
		vals["runtime.alloc_bytes_per_op"] = delta["runtime_stats_total_alloc_bytes"] / float64(ok)
	}
	if n := delta["stage_snapshot_cut_ns_count"]; n > 0 {
		vals["match.snapshots"] = n
		vals["match.snapshot_ms"] = (delta["stage_snapshot_cut_ns_sum"] + delta["stage_snapshot_publish_ns_sum"]) / 1e6 / n
	}
	// The replays mirror the server: one CPU, GOMAXPROCS 1.
	runtime.GOMAXPROCS(1)
	layers, err := r.replayLayers()
	if err != nil {
		return result{}, err
	}
	for k, v := range layers {
		vals[k] = v
	}
	// The end-to-end mean less the outermost in-process span (which is the
	// sum of every layer's self time below it) is the remainder: the HTTP
	// transport, the client, and queueing under open-loop arrivals.
	e2e := all.MeanMs
	vals["recon.unaccounted_ms"] = e2e - layers["recon.layers_ms"]
	if e2e > 0 {
		vals["recon.unaccounted_share"] = vals["recon.unaccounted_ms"] / e2e
	}
	rep.check("recon: end-to-end mean %.4f ms = layers %.4f ms + unaccounted %.4f ms",
		e2e, layers["recon.layers_ms"], vals["recon.unaccounted_ms"])
	rep.check("trace overhead %+.2f%%: traced replay loops against the median of the untraced ones, which spanned %.2f%%; recording the spans directly costs %.3f%%",
		100*vals["trace.overhead_share"], 100*layers["trace.noise_share"], 100*layers["trace.direct_share"])
	delete(vals, "recon.layers_ms")
	delete(vals, "trace.noise_share")
	delete(vals, "trace.direct_share")
	for k, v := range vals {
		if _, declared := perLayer[k]; declared {
			rep.set(k, v, perLayer[k])
		}
	}
	res.Metrics = fill(perLayer, vals)
	return res, nil
}

// start launches the server on fresh state (a fresh data dir when
// durable) or, with fresh false, over the existing data dir, and waits
// until it is ready.
func (r *servingRun) start(fresh bool) (time.Duration, error) {
	// Flush what earlier steps left dirty in the page cache (the inputs,
	// an earlier set-up's data dir), so its writeback does not land on the
	// timed set-up's own fsyncs.
	syscall.Sync()
	if r.spec.durable && fresh {
		r.dataDir = filepath.Join(r.cfg.runDir, "data", strconv.Itoa(int(time.Now().UnixNano())))
		if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
			return 0, err
		}
	}
	srv, err := startServe(r.cfg.serveBin, r.cpu, filepath.Join(r.cfg.runDir, "serve.log"), r.spec.args(r.in, r.dataDir))
	if err != nil {
		return 0, err
	}
	r.srv = srv
	d, err := srv.waitReady(r.client, readyLimit)
	if err != nil {
		return 0, err
	}
	return d, nil
}

// window runs the next ops of the sequence open-loop at rate for d. A
// delete answered 404 in any window fails the run's correctness gate.
func (r *servingRun) window(rate float64, d time.Duration) (window, error) {
	sched := poissonSchedule(r.cfg.seed^math.Float64bits(rate)^uint64(r.src.n), rate, d)
	ops, err := r.src.next(len(sched))
	if err != nil {
		return window{}, err
	}
	w := runOpen(sched, ops, conns, httpExecutor(r.client, r.srv.base))
	missed := 0
	for _, o := range w.outcomes {
		if o.missedDelete() {
			missed++
		}
	}
	if missed > 0 {
		r.checksOK = false
		r.rep.check("FAIL %d deletes of live records answered 404 at %g req/s", missed, rate)
	}
	return w, nil
}

// rung is one ladder step's verdict.
type rung struct {
	Rate     float64            `json:"rate"`
	Achieved float64            `json:"achieved_rps"`
	P99Ms    map[string]float64 `json:"p99_ms"`
	Failed   int                `json:"failed"`
	Grows    bool               `json:"backlog_grows"`
	Pass     bool               `json:"pass"`
}

// judge checks a window against the workload's rung criteria: every
// request kind's p99 within the limit, no failures, and a backlog that
// does not grow.
func (r *servingRun) judge(rate float64, w window) rung {
	ok, failed, _ := w.counts()
	g := rung{Rate: rate, Failed: failed, P99Ms: map[string]float64{}, Grows: backlogGrows(w.backlog, max(4, int(rate*0.02)))}
	if w.elapsed > 0 {
		g.Achieved = float64(ok) / w.elapsed.Seconds()
	}
	g.Pass = failed == 0 && !g.Grows
	for k := opKind(0); k < numOpKinds; k++ {
		s := summarize(w.latencies(func(o opKind) bool { return o == k }))
		if s.N == 0 {
			continue
		}
		g.P99Ms[k.String()] = s.P99Ms
		if s.P99Ms > durMs(r.spec.limit) {
			g.Pass = false
		}
	}
	return g
}

// ladder climbs the workload's fixed rates and returns the achieved
// throughput of the highest rate that passes, the nominal window counting
// as the lowest rung. A transient stall can fail one rung below capacity,
// so one failure does not end the climb; two in a row do.
func (r *servingRun) ladder(nominal window) float64 {
	base := r.judge(r.spec.nominal, nominal)
	r.rep.Ladder = append(r.rep.Ladder, base)
	best := 0.0
	if base.Pass {
		best = base.Achieved
	}
	misses := 0
	for _, rate := range r.spec.ladder {
		w, err := r.window(rate, rungDur)
		if err != nil {
			log.Printf("ladder %g: %v", rate, err)
			break
		}
		g := r.judge(rate, w)
		r.rep.Ladder = append(r.rep.Ladder, g)
		if g.Pass {
			best, misses = g.Achieved, 0
			continue
		}
		if misses++; misses == 2 {
			break
		}
	}
	return best
}

// post sends one JSON request and decodes a 200 answer into out.
func (r *servingRun) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(r.srv.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// resolveAnswer is the part of a resolve answer the gates compare.
type resolveAnswer struct {
	Matches []struct {
		ID   uint64  `json:"id"`
		Prob float64 `json:"prob"`
		Risk float64 `json:"risk"`
	} `json:"matches"`
}

// probeAnswers resolves the fixed probe set over HTTP.
func (r *servingRun) probeAnswers() ([]resolveAnswer, error) {
	out := make([]resolveAnswer, probeSet)
	for i := range out {
		r.attempted++
		if err := r.post("/v1/resolve", map[string]any{"values": r.in.held[i], "k": resolveK}, &out[i]); err != nil {
			r.failed++
			return nil, err
		}
	}
	return out, nil
}

// preCheck runs the gates that need the freshly warm-loaded store: on
// resolve, the fixed probe set over HTTP must equal Model.Resolve on an
// in-process store built from the same CSV.
func (r *servingRun) preCheck() error {
	if r.cfg.workload != "resolve" {
		return nil
	}
	got, err := r.probeAnswers()
	if err != nil {
		return err
	}
	st, err := r.in.model.NewMatchStore(learnrisk.MatchConfig{})
	if err != nil {
		return err
	}
	for _, v := range r.in.warm {
		if _, err := st.Add(v); err != nil {
			return err
		}
	}
	bad := 0
	for i := range got {
		want, err := r.in.model.Resolve(st, r.in.held[i], resolveK)
		if err != nil {
			return err
		}
		if !sameResolve(got[i], want) {
			bad++
		}
	}
	r.failed += bad
	if bad > 0 {
		r.checksOK = false
	}
	r.rep.check("resolve: %d/%d fixed probes over HTTP equal Model.Resolve on an in-process store from the same CSV", probeSet-bad, probeSet)
	return nil
}

func sameResolve(got resolveAnswer, want []learnrisk.MatchResult) bool {
	if len(got.Matches) != len(want) {
		return false
	}
	for j, m := range got.Matches {
		if m.ID != want[j].ID || m.Prob != want[j].Score.Prob || m.Risk != want[j].Score.Risk {
			return false
		}
	}
	return true
}

// postCheck runs the gates that follow the measured window: on score, the
// sampled responses equal Model.Score on the loaded artifact; on ingest,
// a restart over the same data dir keeps the live count and the fixed
// probe set's answers. It returns the restart's replay rate (records/s)
// on ingest.
func (r *servingRun) postCheck(win window) (float64, error) {
	switch r.cfg.workload {
	case "score":
		checked, bad := 0, 0
		for i, o := range win.outcomes {
			if o.body == nil {
				continue
			}
			checked++
			if !r.scoreMatches(o.body, i, win) {
				bad++
			}
		}
		r.failed += bad
		if bad > 0 || checked == 0 {
			r.checksOK = false
		}
		r.rep.check("score: %d/%d sampled responses equal Model.Score on the loaded artifact", checked-bad, checked)
	case "ingest":
		before, err := r.probeAnswers()
		if err != nil {
			return 0, err
		}
		live, err := r.live()
		if err != nil {
			return 0, err
		}
		if err := r.srv.stop(); err != nil {
			return 0, fmt.Errorf("stop before restart: %w", err)
		}
		r.srv = nil
		d, err := r.start(false)
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		after, err := r.probeAnswers()
		if err != nil {
			return 0, err
		}
		live2, err := r.live()
		if err != nil {
			return 0, err
		}
		same := live == live2 && reflect.DeepEqual(before, after)
		r.attempted++
		if !same {
			r.failed++
			r.checksOK = false
		}
		r.rep.check("ingest: restart over the same data dir: live %d -> %d, %d fixed probes unchanged: %v", live, live2, probeSet, same)
		return float64(live2) / d.Seconds(), nil
	}
	return 0, nil
}

// scoreMatches compares one /v1/score response body with the in-process
// verdict for the same pair.
func (r *servingRun) scoreMatches(body []byte, i int, win window) bool {
	var got struct {
		Prob, Risk, Mu, Sigma float64
		Match                 bool
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	want, err := r.in.model.Score(r.in.pairs[win.outcomes[i].arg])
	if err != nil {
		return false
	}
	return got.Prob == want.Prob && got.Risk == want.Risk && got.Mu == want.Mu && got.Sigma == want.Sigma && got.Match == want.Match
}

// live reads the store's live record count from /readyz.
func (r *servingRun) live() (int, error) {
	resp, err := r.client.Get(r.srv.base + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Records, nil
}

// assertZeros fails the run when a layer the workload must bypass did
// work: the WAL on the in-memory workloads, the batcher on the match
// workloads.
func (r *servingRun) assertZeros(delta map[string]float64) error {
	if !r.spec.durable {
		if n := delta["wal_stats_appends"]; n != 0 {
			return fmt.Errorf("wal.appends = %g on %s, predicted 0", n, r.cfg.workload)
		}
		r.rep.check("predicted zero: wal.appends = 0 on %s", r.cfg.workload)
	}
	if r.cfg.workload != "score" {
		if n := delta["batcher_flushes"]; n != 0 {
			return fmt.Errorf("batcher flushes = %g on %s, predicted 0", n, r.cfg.workload)
		}
		r.rep.check("predicted zero: batcher flushes = 0 on %s", r.cfg.workload)
	}
	return nil
}
