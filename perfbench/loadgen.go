package main

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is one request kind of the serving workloads.
type opKind uint8

const (
	opScore opKind = iota
	opResolve
	opAdd
	opDelete
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"score", "resolve", "add", "delete"}[k]
}

func (k opKind) isWrite() bool { return k == opAdd || k == opDelete }

// op is one request: its HTTP form plus the payload index the in-process
// replay uses to issue the same call without HTTP.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	seq    int    // position in the workload's request sequence
	arg    int    // score: test-pair slot; resolve/add: held-out row
	id     uint64 // delete: record ID
	check  bool   // keep the response body for a correctness check
}

// outcome is one request's fate, with times relative to the window start.
type outcome struct {
	kind     opKind
	seq      int
	arg      int
	intended time.Duration
	sent     time.Duration
	done     time.Duration
	status   int
	err      error
	unsent   bool // never sent: the window's drain deadline passed first
	body     []byte
}

// latency is the request's time from its intended send time, so a stall
// also charges every request queued behind it.
func (o outcome) latency() time.Duration { return o.done - o.intended }

// ok reports a request that was sent and answered 2xx. A delete answered
// 404 fails too: the sequence deletes only distinct warm-loaded records,
// so a miss means the server lost or misrouted one.
func (o outcome) ok() bool {
	return !o.unsent && o.err == nil && o.status/100 == 2
}

// missedDelete reports a delete answered 404.
func (o outcome) missedDelete() bool {
	return o.kind == opDelete && o.status == http.StatusNotFound
}

// executor issues one op and returns the status and response body.
type executor func(o *op) (status int, body []byte, err error)

// poissonSchedule returns the intended send offsets of an open-loop
// Poisson arrival process at rate requests/s over d, from a seeded
// generator: the same seed and rate give the same schedule.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var s []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return s
		}
		s = append(s, time.Duration(t*float64(time.Second)))
	}
}

// sleep blocks the calling thread for d with nanosleep. time.Sleep wakes
// an idle process through the network poller, whose epoll timeout has
// millisecond granularity: on a 2-CPU VM, time.Sleep(300µs) overslept by
// 0.77 ms at the median and nanosleep by 63 µs. The generator runs one P
// per sender, so a sender blocked here holds up no other goroutine.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// window is one open-loop run of a schedule.
type window struct {
	outcomes   []outcome
	elapsed    time.Duration // the schedule's span (the offered window)
	backlog    []int         // due-but-unsent requests, sampled every backlogEvery
	backlogMax int
}

const (
	backlogEvery = 20 * time.Millisecond
	// drainGrace bounds how long a window keeps sending after its last
	// intended send time; requests still queued then are failures.
	drainGrace = 2 * time.Second
)

// runOpen sends ops[i] at sched[i] (offsets from now) over conns
// concurrent senders. A sender that falls behind sends immediately, so a
// stalled request delays the ones queued behind it, and every latency is
// taken from the intended send time.
func runOpen(sched []time.Duration, ops []op, conns int, exec executor) window {
	n := len(sched)
	w := window{outcomes: make([]outcome, n)}
	if n == 0 {
		return w
	}
	w.elapsed = sched[n-1]
	start := time.Now()
	deadline := sched[n-1] + drainGrace
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &ops[i]
				if d := sched[i] - time.Since(start); d > 0 {
					sleep(d)
				}
				sent := time.Since(start)
				if sent > deadline {
					w.outcomes[i] = outcome{kind: o.kind, seq: o.seq, arg: o.arg, intended: sched[i], sent: sent, done: sent, unsent: true}
					continue
				}
				status, body, err := exec(o)
				out := outcome{kind: o.kind, seq: o.seq, arg: o.arg, intended: sched[i], sent: sent, done: time.Since(start), status: status, err: err}
				if o.check {
					out.body = body
				}
				w.outcomes[i] = out
			}
		}()
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(backlogEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				b := backlogAt(sched, time.Since(start), int(next.Load()))
				w.backlog = append(w.backlog, b)
				w.backlogMax = max(w.backlogMax, b)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	return w
}

// backlogAt is the number of requests due by now that no sender has taken
// yet.
func backlogAt(sched []time.Duration, now time.Duration, claimed int) int {
	due := sort.Search(len(sched), func(i int) bool { return sched[i] > now })
	return max(due-claimed, 0)
}

// backlogGrows reports whether the generator's queue grew over a window:
// the mean backlog of the last third of the samples exceeds that of the
// first third by more than slack requests. A stable queue, however deep,
// does not grow; one fed faster than it drains does.
func backlogGrows(samples []int, slack int) bool {
	if len(samples) < 6 {
		return false
	}
	third := len(samples) / 3
	first, last := 0, 0
	for _, b := range samples[:third] {
		first += b
	}
	for _, b := range samples[len(samples)-third:] {
		last += b
	}
	return float64(last-first)/float64(third) > float64(slack)
}

// lateness returns how late the generator sent each request, sorted.
func (w window) lateness() []time.Duration {
	var ds []time.Duration
	for _, o := range w.outcomes {
		if !o.unsent {
			ds = append(ds, o.sent-o.intended)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// latencies returns the latencies of the successful requests whose kind
// passes keep.
func (w window) latencies(keep func(opKind) bool) []time.Duration {
	var ds []time.Duration
	for _, o := range w.outcomes {
		if keep(o.kind) && o.ok() {
			ds = append(ds, o.latency())
		}
	}
	return ds
}

// counts returns completed-successfully, failed and throttled (429)
// requests.
func (w window) counts() (ok, failed, throttled int) {
	for _, o := range w.outcomes {
		switch {
		case o.ok():
			ok++
		default:
			failed++
			if o.status == http.StatusTooManyRequests {
				throttled++
			}
		}
	}
	return ok, failed, throttled
}

// httpExecutor issues ops against base over client.
func httpExecutor(client *http.Client, base string) executor {
	return func(o *op) (int, []byte, error) {
		req, err := http.NewRequestWithContext(context.Background(), o.method, base+o.path, bytes.NewReader(o.body))
		if err != nil {
			return 0, nil, err
		}
		if o.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
