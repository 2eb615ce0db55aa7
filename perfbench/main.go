// Command perfbench is the repository's benchmark. One invocation runs
// one workload for one seed and prints, as its last line, a JSON object
// with the correctness verdict, the attempted and failed operation counts
// and the metrics: the end-to-end ones by default, the per-layer ones
// with --trace 1.
//
//	bash perfbench/run.sh --workload score --seed 1 --seconds 8 --trace 0
//
// The serving workloads (score, resolve, ingest) start cmd/serve as a
// child process on a model trained from the seed's generated AB workload,
// pinned to a CPU this process does not use, and drive it open-loop. The
// train workload runs the training pipeline in a child process. See
// README.md for the metrics and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units; every workload
// reports every one (BENCHMARK.json declares the same names).
var endToEnd = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"cpu_us_per_op": "us",
	"peak_rss_mb":   "MB",
	"ok_ratio":      "ratio",
	"risk_auroc":    "ratio",
}

// perLayer lists the per-layer metrics and their units. A layer a
// workload does not exercise reports 0.
var perLayer = map[string]string{
	"loadgen.late_p99_ms":               "ms",
	"loadgen.backlog_max":               "count",
	"loadgen.score_p50_ms":              "ms",
	"loadgen.resolve_p50_ms":            "ms",
	"loadgen.resolve_p99_ms":            "ms",
	"loadgen.write_p50_ms":              "ms",
	"loadgen.write_p99_ms":              "ms",
	"server.handler_self_us":            "us",
	"server.batch_wait_us":              "us",
	"server.batch_pairs_mean":           "count",
	"server.throttled":                  "count",
	"facade.score_us":                   "us",
	"facade.score_batch_us_per_pair":    "us",
	"facade.resolve_us":                 "us",
	"facade.resolve_shard_us":           "us",
	"match.candidates_per_probe":        "count",
	"match.candidates_us":               "us",
	"match.add_us":                      "us",
	"match.delete_us":                   "us",
	"match.compactions":                 "count",
	"match.tombstones":                  "count",
	"match.snapshots":                   "count",
	"match.snapshot_ms":                 "ms",
	"match.replay_records_per_s":        "1/s",
	"partition.resolve_us":              "us",
	"partition.scatter_self_us":         "us",
	"partition.pruned_tokens_per_probe": "count",
	"partition.add_us":                  "us",
	"partition.delete_us":               "us",
	"wal.appends":                       "count",
	"wal.syncs_per_append":              "ratio",
	"wal.bytes_per_append":              "B",
	"train.classifier_s":                "s",
	"train.rules_s":                     "s",
	"train.risk_s":                      "s",
	"train.eval_s":                      "s",
	"runtime.gc_cycles_per_kop":         "count",
	"runtime.alloc_bytes_per_op":        "B",
	"recon.unaccounted_ms":              "ms",
	"recon.unaccounted_share":           "ratio",
	"trace.overhead_share":              "ratio",
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	serveBin string
	runDir   string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg      config
		traceN   int
		trainKid bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: score, resolve, ingest or train")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&traceN, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&cfg.serveBin, "serve", "", "path of the built cmd/serve binary")
	fs.StringVar(&cfg.runDir, "dir", ".bench_build/runs", "directory for generated inputs, logs and spans")
	fs.BoolVar(&trainKid, "train-child", false, "internal: run the train workload's child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceN == 1
	if cfg.seconds < 1 {
		log.Print("--seconds must be at least 1")
		return 2
	}
	if trainKid {
		if err := trainChild(cfg, stdout); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	var runWorkload func(config, *report) (result, error)
	switch cfg.workload {
	case "score", "resolve", "ingest":
		runWorkload = runServing
	case "train":
		runWorkload = runTrain
	default:
		log.Printf("unknown --workload %q (score, resolve, ingest or train)", cfg.workload)
		return 2
	}
	if cfg.workload != "train" && cfg.serveBin == "" {
		log.Print("--serve is required for the serving workloads")
		return 2
	}
	cfg.runDir = filepath.Join(cfg.runDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		log.Print(err)
		return 1
	}
	// Only the logs and spans outlive the run.
	defer func() {
		for _, f := range []string{"data", "model.json", "records.csv"} {
			os.RemoveAll(filepath.Join(cfg.runDir, f))
		}
	}()
	rep := newReport(cfg)
	res, err := runWorkload(cfg, rep)
	if err != nil {
		log.Printf("%s: %v", cfg.workload, err)
		return 1
	}
	if err := checkMetricSet(res.Metrics, cfg.trace); err != nil {
		log.Print(err)
		return 1
	}
	rep.Correct, rep.Attempted, rep.Failed = res.Correct, res.Attempted, res.Failed
	rep.print(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkMetricSet verifies a result carries exactly the declared metrics.
func checkMetricSet(ms map[string]metric, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name, unit := range want {
		m, ok := ms[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(ms) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(ms), len(want))
	}
	return nil
}

// fill returns a metric map holding every declared name of the set, with
// value 0, for a workload to overwrite the ones it measures.
func fill(set map[string]string, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(set))
	for name, unit := range set {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// report is the human-readable record printed before the result line: the
// environment the numbers were taken in and every metric under the name
// the README gives it.
type report struct {
	Workload  string                    `json:"workload"`
	Seed      uint64                    `json:"seed"`
	Trace     bool                      `json:"trace"`
	NProc     int                       `json:"nproc"`
	GoVersion string                    `json:"go_version"`
	Commit    string                    `json:"commit"`
	GenCPUs   string                    `json:"generator_cpus"`
	GenProcs  int                       `json:"generator_gomaxprocs"`
	SrvCPUs   string                    `json:"server_cpus"`
	SrvProcs  int                       `json:"server_gomaxprocs"`
	Conns     int                       `json:"connections"`
	SetupS    []float64                 `json:"setup_samples_s,omitempty"`
	RateRPS   float64                   `json:"nominal_rps,omitempty"`
	Ladder    []rung                    `json:"ladder,omitempty"`
	Named     map[string]metric         `json:"metrics"`
	Kinds     map[string]latencySummary `json:"latency,omitempty"`
	Checks    []string                  `json:"checks"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
}

func newReport(cfg config) *report {
	return &report{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		NProc:     hostCPUs(),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		GenCPUs:   selfAffinity(),
		GenProcs:  runtime.GOMAXPROCS(0),
		Named:     map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string) { r.Named[name] = metric{v, unit} }

func (r *report) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "report %s\n", b)
}

// hostCPUs counts the host's online CPUs (not just this process's
// affinity mask).
func hostCPUs() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/online")
	if err == nil {
		if cpus, err := parseCPUList(string(b)); err == nil && len(cpus) > 0 {
			return len(cpus)
		}
	}
	return runtime.NumCPU()
}

// serverCPU picks the CPU the server is pinned to: the first online CPU
// outside this process's affinity, or "" (no pinning, shared CPU) when
// there is none.
func serverCPU() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/online")
	if err != nil {
		return ""
	}
	online, err1 := parseCPUList(string(b))
	mine, err2 := parseCPUList(selfAffinity())
	if err1 != nil || err2 != nil {
		return ""
	}
	used := map[int]bool{}
	for _, c := range mine {
		used[c] = true
	}
	for _, c := range online {
		if !used[c] {
			return fmt.Sprint(c)
		}
	}
	return ""
}

// commit names the source revision go build embedded in this binary
// (vcs.revision, "+dirty" with uncommitted changes), or "unknown" when
// it was built outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
