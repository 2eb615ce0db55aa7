package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	learnrisk "repro"
)

// minTrainRuns is the fewest RunCtx calls one train run times, however
// short the window.
const minTrainRuns = 2

// trainRun is one RunCtx call as the child reports it.
type trainRun struct {
	WallS   float64    `json:"wall_s"`
	AUROC   float64    `json:"auroc"`
	Stages  stageTimes `json:"stages"`
	Covered bool       `json:"covers_test_split"`
	Sorted  bool       `json:"sorted_by_risk"`
}

// trainReport is the child's whole answer.
type trainReport struct {
	Pairs     int        `json:"pairs"`
	SetupS    []float64  `json:"setup_s"`
	Runs      []trainRun `json:"runs"`
	CPUUs     int64      `json:"cpu_us"` // utime+stime over the RunCtx calls
	PeakRSSMB float64    `json:"peak_rss_mb"`
	GCCycles  uint32     `json:"gc_cycles"`
	AllocB    uint64     `json:"alloc_bytes"`
}

// trainChild is the child process: it generates the workload (timed
// setupRuns times, the set-up), then calls RunCtx until the window is
// spent, and prints a trainReport.
func trainChild(cfg config, stdout io.Writer) error {
	var rep trainReport
	var w *learnrisk.Workload
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		var err error
		if w, err = learnrisk.Generate(profile, scale, cfg.seed); err != nil {
			return err
		}
		rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())
	}
	rep.Pairs = w.Size()
	// One untimed run first: the first call pays heap growth and cold
	// caches that every later call is spared.
	if _, err := learnrisk.RunCtx(context.Background(), w, learnrisk.Options{Seed: cfg.seed}); err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	window := time.Duration(cfg.seconds) * time.Second
	for len(rep.Runs) < minTrainRuns || time.Since(start) < window {
		clock := newStageClock()
		r, err := learnrisk.RunCtx(context.Background(), w, learnrisk.Options{Seed: cfg.seed, Progress: clock.progress})
		end := time.Now()
		if err != nil {
			return err
		}
		test := r.Model().TestPairs()
		rep.Runs = append(rep.Runs, trainRun{
			WallS:   end.Sub(clock.start).Seconds(),
			AUROC:   r.AUROC,
			Stages:  clock.times(end),
			Covered: coversSplit(r.Ranking, test),
			Sorted:  sort.SliceIsSorted(r.Ranking, func(i, j int) bool { return r.Ranking[i].Risk > r.Ranking[j].Risk }),
		})
	}
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	rep.CPUUs = cpu1 - cpu0
	rep.GCCycles = ms1.NumGC - ms0.NumGC
	rep.AllocB = ms1.TotalAlloc - ms0.TotalAlloc
	if rep.PeakRSSMB, err = procPeakRSSMB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// coversSplit reports whether the ranking lists every test pair once.
func coversSplit(ranking []learnrisk.RankedPair, test []int) bool {
	if len(ranking) != len(test) {
		return false
	}
	seen := make(map[int]bool, len(test))
	for _, i := range test {
		seen[i] = true
	}
	for _, rp := range ranking {
		if !seen[rp.PairIndex] {
			return false
		}
		delete(seen, rp.PairIndex)
	}
	return len(seen) == 0
}

func selfCPU() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec, nil
}

// runTrain runs the train workload: this binary re-executed as the child,
// pinned to the server CPU.
func runTrain(cfg config, rep *report) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cpu := serverCPU()
	rep.SrvCPUs, rep.SrvProcs = cpu, 1
	if cpu == "" {
		rep.SrvCPUs, rep.SrvProcs = "shared", runtime.NumCPU()
	}
	argv := pinned(cpu, self, "-train-child", "-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds))
	cmd := exec.Command(argv[0], argv[1:]...)
	logf, err := os.Create(filepath.Join(cfg.runDir, "train.log"))
	if err != nil {
		return result{}, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("train child: %w", err)
	}
	var tr trainReport
	if err := json.Unmarshal(out, &tr); err != nil {
		return result{}, fmt.Errorf("train child output: %w", err)
	}
	if len(tr.Runs) == 0 {
		return result{}, fmt.Errorf("train child reported no runs")
	}

	failed := 0
	for _, r := range tr.Runs {
		if !r.Covered || !r.Sorted || r.AUROC != tr.Runs[0].AUROC {
			failed++
		}
	}
	rep.check("train: %d/%d runs rank the whole test split by descending risk with identical AUROC %.6f", len(tr.Runs)-failed, len(tr.Runs), tr.Runs[0].AUROC)

	walls := make([]float64, len(tr.Runs))
	var st stageTimes
	for i, r := range tr.Runs {
		walls[i] = r.WallS
		st.Classifier += r.Stages.Classifier / float64(len(tr.Runs))
		st.Rules += r.Stages.Rules / float64(len(tr.Runs))
		st.Risk += r.Stages.Risk / float64(len(tr.Runs))
		st.Eval += r.Stages.Eval / float64(len(tr.Runs))
	}
	sort.Float64s(walls)
	pairsDone := float64(tr.Pairs * len(tr.Runs))
	pairsPerS := float64(tr.Pairs) / median(walls)
	auroc := tr.Runs[0].AUROC
	rep.set("setup_s", median(tr.SetupS), "s")
	rep.set("pairs_per_s", pairsPerS, "1/s")
	rep.set("risk_auroc", auroc, "ratio")
	rep.set("fail_ratio", float64(failed)/float64(len(tr.Runs)), "ratio")
	rep.set("cpu_us_per_op", float64(tr.CPUUs)/pairsDone, "us")
	rep.set("peak_rss_mb", tr.PeakRSSMB, "MB")
	rep.set("train_wall_p50_ms", 1000*median(walls), "ms")
	rep.set("train_wall_max_ms", 1000*walls[len(walls)-1], "ms")

	res := result{Correct: failed == 0, Attempted: len(tr.Runs), Failed: failed}
	if !cfg.trace {
		res.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":       median(tr.SetupS),
			"p50_ms":        1000 * median(walls),
			"cpu_us_per_op": float64(tr.CPUUs) / pairsDone,
			"peak_rss_mb":   tr.PeakRSSMB,
			"ok_ratio":      1 - float64(failed)/float64(len(tr.Runs)),
			"risk_auroc":    auroc,
		})
		return res, nil
	}
	res.Metrics = fill(perLayer, map[string]float64{
		"train.classifier_s":         st.Classifier,
		"train.rules_s":              st.Rules,
		"train.risk_s":               st.Risk,
		"train.eval_s":               st.Eval,
		"runtime.gc_cycles_per_kop":  float64(tr.GCCycles) * 1000 / pairsDone,
		"runtime.alloc_bytes_per_op": float64(tr.AllocB) / pairsDone,
	})
	for k, v := range res.Metrics {
		if v.Value != 0 {
			rep.set(k, v.Value, v.Unit)
		}
	}
	return res, nil
}
