package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	learnrisk "repro"
)

// Every input comes from the AB profile at this scale (26,095 candidate
// pairs, 26,095 right-table records).
const (
	profile  = "AB"
	scale    = 0.5
	resolveK = 5
)

// stageTimes splits one training run at its Options.Progress stage
// boundaries.
type stageTimes struct {
	Classifier float64 `json:"classifier_s"`
	Rules      float64 `json:"rules_s"`
	Risk       float64 `json:"risk_s"`
	Eval       float64 `json:"eval_s"`
}

// stageClock turns Progress callbacks into stage boundaries: a stage ends
// at its last callback, and evaluation is what RunCtx does after the last
// risk epoch.
type stageClock struct {
	start time.Time
	last  map[string]time.Time
}

func newStageClock() *stageClock {
	return &stageClock{start: time.Now(), last: map[string]time.Time{}}
}

func (c *stageClock) progress(stage string, _, _ int) { c.last[stage] = time.Now() }

func (c *stageClock) times(end time.Time) stageTimes {
	cls, rules, risk := c.last["classifier"], c.last["rules"], c.last["risk"]
	return stageTimes{
		Classifier: cls.Sub(c.start).Seconds(),
		Rules:      rules.Sub(cls).Seconds(),
		Risk:       risk.Sub(rules).Seconds(),
		Eval:       end.Sub(risk).Seconds(),
	}
}

// inputs are one seed's generated files and payloads for the serving
// workloads.
type inputs struct {
	w           *learnrisk.Workload
	model       *learnrisk.Model // the saved artifact, loaded back
	auroc       float64
	train       stageTimes
	modelPath   string
	recordsPath string
	warm        [][]string // warm-load rows in file order: row i gets ID i
	held        [][]string // held-out rows: probes and added records
	pairs       []learnrisk.Pair
}

// makeInputs generates the AB workload for seed, trains and saves the
// served model, and splits the right table into a warm-load half (written
// as the -records CSV) and a held-out half.
func makeInputs(dir string, seed uint64) (*inputs, error) {
	w, err := learnrisk.Generate(profile, scale, seed)
	if err != nil {
		return nil, err
	}
	clock := newStageClock()
	rep, err := learnrisk.RunCtx(context.Background(), w, learnrisk.Options{Seed: seed, Progress: clock.progress})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	in := &inputs{w: w, auroc: rep.AUROC, train: clock.times(time.Now())}
	in.modelPath = filepath.Join(dir, "model.json")
	f, err := os.Create(in.modelPath)
	if err != nil {
		return nil, err
	}
	if err := rep.Model().Save(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("save model: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// The in-process oracle uses the artifact exactly as the server loads it.
	if in.model, err = learnrisk.LoadFile(in.modelPath); err != nil {
		return nil, err
	}
	for _, i := range rep.Model().TestPairs() {
		l, r := w.PairValues(i)
		in.pairs = append(in.pairs, learnrisk.Pair{Left: l, Right: r})
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	perm := rng.Perm(w.NumRightRecords())
	half := len(perm) / 2
	for _, i := range perm[:half] {
		v, _ := w.RightRecordAt(i)
		in.warm = append(in.warm, v)
	}
	for _, i := range perm[half:] {
		v, _ := w.RightRecordAt(i)
		in.held = append(in.held, v)
	}
	in.recordsPath = filepath.Join(dir, "records.csv")
	return in, writeRecordsCSV(in.recordsPath, w.AttrNames(), in.warm)
}

// writeRecordsCSV writes rows in the -records layout: a header, then
// id,entity_id,<values...>.
func writeRecordsCSV(path string, attrs []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	_ = cw.Write(append([]string{"id", "entity_id"}, attrs...))
	for i, r := range rows {
		_ = cw.Write(append([]string{strconv.Itoa(i), ""}, r...))
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mix is a request-kind distribution.
type mix [numOpKinds]float64

// opSource deals a workload's request sequence from its seed: kinds drawn
// from the mix, score pairs and held-out rows in seeded orders, and
// deletes of distinct warm-loaded records, so no delete ever misses.
type opSource struct {
	in                        *inputs
	mix                       mix
	rng                       *rand.Rand
	pairPerm                  []int
	probe                     []int
	add                       []int
	del                       []int
	nPair, nProbe, nAdd, nDel int
	checkEvery                int
	n                         int
}

func newOpSource(in *inputs, m mix, seed uint64, checkEvery int) *opSource {
	rng := rand.New(rand.NewPCG(seed, 2))
	s := &opSource{in: in, mix: m, rng: rng, checkEvery: checkEvery}
	s.pairPerm = rng.Perm(len(in.pairs))
	s.probe = rng.Perm(len(in.held))
	s.add = rng.Perm(len(in.held))
	s.del = rng.Perm(len(in.warm))
	return s
}

// next deals n ops.
func (s *opSource) next(n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		u := s.rng.Float64()
		k := opKind(0)
		for k < numOpKinds-1 && u >= s.mix[k] {
			u -= s.mix[k]
			k++
		}
		o := op{kind: k, seq: s.n}
		var body any
		switch k {
		case opScore:
			o.arg = s.pairPerm[s.nPair%len(s.pairPerm)]
			s.nPair++
			p := s.in.pairs[o.arg]
			o.method, o.path = "POST", "/v1/score"
			body = map[string][]string{"left": p.Left, "right": p.Right}
			o.check = s.checkEvery > 0 && s.n%s.checkEvery == 0
		case opResolve:
			o.arg = s.probe[s.nProbe%len(s.probe)]
			s.nProbe++
			o.method, o.path = "POST", "/v1/resolve"
			body = map[string]any{"values": s.in.held[o.arg], "k": resolveK}
		case opAdd:
			o.arg = s.add[s.nAdd%len(s.add)]
			s.nAdd++
			o.method, o.path = "POST", "/v1/records"
			body = map[string]any{"values": s.in.held[o.arg]}
		case opDelete:
			if s.nDel >= len(s.del) {
				return nil, fmt.Errorf("workload ran out of distinct records to delete after %d deletes", s.nDel)
			}
			o.id = uint64(s.del[s.nDel])
			s.nDel++
			o.method, o.path = "DELETE", fmt.Sprintf("/v1/records/%d", o.id)
		}
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			o.body = b
		}
		ops[i] = o
		s.n++
	}
	return ops, nil
}
