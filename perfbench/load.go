package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
)

// phase collects what one timed phase measured.
type phase struct {
	mu        sync.Mutex
	latMS     []float64
	lateMS    []float64
	byKey     map[string][]float64   // latency by query class: "query|mode" on flight1, query otherwise
	windows   []map[string][]float64 // byKey per measurement window
	attempted int
	failed    int
	correct   int
	elapsedS  float64
	// inflight holds each open-loop request's [sent, answered] interval,
	// in nanoseconds since the phase started.
	inflight [][2]int64
	mismatch string // first wrong answer or error, for the report
}

func newPhase() *phase { return &phase{byKey: make(map[string][]float64)} }

// answered records a correct answer of a query class in a measurement
// window. The caller holds p.mu when other goroutines may record.
func (p *phase) answered(class string, window int, ms float64) {
	p.correct++
	p.latMS = append(p.latMS, ms)
	p.byKey[class] = append(p.byKey[class], ms)
	for len(p.windows) <= window {
		p.windows = append(p.windows, make(map[string][]float64))
	}
	p.windows[window][class] = append(p.windows[window][class], ms)
}

// queryMS is the median over measurement windows of each window's
// class-weighted latency (classMedianGeo), so interference confined to
// one window does not move it.
func (p *phase) queryMS() float64 {
	var per []float64
	for _, w := range p.windows {
		if len(w) > 0 {
			per = append(per, classMedianGeo(w))
		}
	}
	return median(per)
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if p.mismatch == "" {
		p.mismatch = fmt.Sprintf(format, args...)
	}
}

// diff names the first cell where got differs from the reference, or
// returns "" when the answers match.
func diff(ref *ops.Result, keys [][]uint64, aggs []uint64) string {
	if len(keys) != len(ref.Keys) || len(aggs) != len(ref.Aggs) {
		return fmt.Sprintf("%d rows / %d aggregates, reference has %d / %d", len(keys), len(aggs), len(ref.Keys), len(ref.Aggs))
	}
	for i := range ref.Keys {
		if len(keys[i]) != len(ref.Keys[i]) {
			return fmt.Sprintf("row %d has %d key columns, reference %d", i, len(keys[i]), len(ref.Keys[i]))
		}
		for j := range ref.Keys[i] {
			if keys[i][j] != ref.Keys[i][j] {
				return fmt.Sprintf("row %d key %d = %d, reference %d", i, j, keys[i][j], ref.Keys[i][j])
			}
		}
		if aggs[i] != ref.Aggs[i] {
			return fmt.Sprintf("row %d aggregate = %d, reference %d", i, aggs[i], ref.Aggs[i])
		}
	}
	return ""
}

// references answers every query serially in Unprotected mode on the
// plain tables of db, outside any timer.
func references(db *exec.DB, queries []string) (map[string]*ops.Result, error) {
	out := make(map[string]*ops.Result, len(queries))
	for _, q := range queries {
		res, _, err := exec.Run(db, exec.Unprotected, ops.Scalar, ssb.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q, err)
		}
		out[q] = res
	}
	return out, nil
}

// flightModes are the detection modes flight1-sf1 interleaves.
var flightModes = []exec.Mode{exec.Unprotected, exec.LateOnetime, exec.Continuous, exec.ContinuousReencoding, exec.EarlyOnetime}

var flightQueries = []string{"Q1.1", "Q1.2", "Q1.3"}

// runFlight is the closed-loop library workload: whole rounds of every
// (query, mode) pair, each round in a seeded order, until at least
// minRounds rounds and the given time have passed. Every call runs on
// the one pool; the next starts when the previous returned.
func runFlight(db *exec.DB, pool *exec.Pool, refs map[string]*ops.Result, seed int64, seconds float64, minRounds int, tr *tracer) *phase {
	type combo struct {
		q string
		m exec.Mode
	}
	var combos []combo
	for _, q := range flightQueries {
		for _, m := range flightModes {
			combos = append(combos, combo{q, m})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	p := newPhase()
	start := time.Now()
	var seq uint64
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
		for _, c := range combos {
			seq++
			var id int32
			var ts int64
			if tr != nil {
				id, ts = tr.newID(), tr.now()
			}
			t0 := time.Now()
			res, log, err := exec.Run(db, c.m, ops.Scalar, ssb.Queries[c.q], exec.WithPool(pool))
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if tr != nil {
				tr.record(span{Seq: seq, ID: id, Name: spanPlan, Query: c.q, Start: ts, End: tr.now()})
			}
			p.attempted++
			switch {
			case err != nil:
				p.fail("%s %s: %v", c.q, c.m, err)
				continue
			case log.Count() > 0:
				p.fail("%s %s: %d detections on clean data", c.q, c.m, log.Count())
				continue
			}
			if d := diff(refs[c.q], res.Keys, res.Aggs); d != "" {
				p.fail("%s %s: %s", c.q, c.m, d)
				continue
			}
			p.answered(c.q+"|"+c.m.String(), round, ms) // a round is a window
			p.lateMS = append(p.lateMS, 0)              // closed loop: every call is issued when due
		}
	}
	p.elapsedS = time.Since(start).Seconds()
	return p
}

// queryResponse decodes both server.QueryResponse and
// cluster.RouterResponse.
type queryResponse struct {
	Keys           [][]uint64          `json:"keys"`
	Aggs           []uint64            `json:"aggs"`
	Detected       map[string][]uint64 `json:"detected"`
	ShardsAnswered int                 `json:"shards_answered"`
	ShardsTotal    int                 `json:"shards_total"`
}

// openLoop drives a schedule against an HTTP endpoint: a generator
// releases every query at its due time into a queue that conns
// connections drain. Latency runs from the due time, so a stall is
// charged to every request it delays.
type openLoop struct {
	client *http.Client
	url    string
	conns  int
	refs   map[string]*ops.Result
	tr     *tracer
	// window is the length of one measurement window of the schedule;
	// 0 makes the whole run one window.
	window time.Duration
	start  time.Time // the schedule's time zero
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (ol *openLoop) run(sched []op) *phase {
	p := newPhase()
	type job struct {
		o   op
		seq uint64
	}
	queue := make(chan job, len(sched)) // sized to every send: the generator never blocks
	start := time.Now().Add(20 * time.Millisecond)
	ol.start = start
	var last time.Time
	var lastMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < ol.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				due := start.Add(j.o.due)
				ol.do(p, j.o, j.seq, due)
				lastMu.Lock()
				last = time.Now()
				lastMu.Unlock()
			}
		}()
	}
	for i, o := range sched {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := float64(time.Since(due).Nanoseconds()) / 1e6
		p.mu.Lock()
		p.lateMS = append(p.lateMS, late)
		p.mu.Unlock()
		queue <- job{o: o, seq: uint64(i + 1)}
	}
	close(queue)
	wg.Wait()
	p.elapsedS = last.Sub(start).Seconds()
	return p
}

// post sends one request; with a tracer it is the request's root span.
func (ol *openLoop) post(path string, body []byte, seq uint64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, ol.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int32
	var ts int64
	if ol.tr != nil {
		id, ts = ol.tr.newID(), ol.tr.now()
		setTraceHeaders(req.Header, traceCtx{seq: seq, parent: id})
	}
	resp, err := ol.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ol.tr != nil {
		ol.tr.record(span{Seq: seq, ID: id, Name: spanClient, Start: ts, End: ol.tr.now(), Bytes: int64(len(data))})
	}
	return resp.StatusCode, data, err
}

func (ol *openLoop) do(p *phase, o op, seq uint64, due time.Time) {
	body, _ := json.Marshal(map[string]any{"query": o.query, "mode": "continuous"})
	sent := time.Now()
	status, data, err := ol.post("/query", body, seq)
	done := time.Now()
	ms := float64(done.Sub(due).Nanoseconds()) / 1e6
	p.mu.Lock()
	p.attempted++
	p.inflight = append(p.inflight, [2]int64{int64(sent.Sub(ol.start)), int64(done.Sub(ol.start))})
	p.mu.Unlock()
	if err != nil || status != http.StatusOK {
		p.fail("%s continuous: status %d: %v %.200s", o.query, status, err, data)
		return
	}
	var r queryResponse
	if err := json.Unmarshal(data, &r); err != nil {
		p.fail("%s continuous: undecodable body: %v", o.query, err)
		return
	}
	if r.ShardsAnswered < r.ShardsTotal {
		p.fail("%s continuous: degraded, %d of %d shards answered", o.query, r.ShardsAnswered, r.ShardsTotal)
		return
	}
	if len(r.Detected) > 0 {
		p.fail("%s continuous: detections on clean data in %d columns", o.query, len(r.Detected))
		return
	}
	if d := diff(ol.refs[o.query], r.Keys, r.Aggs); d != "" {
		p.fail("%s continuous: %s", o.query, d)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	window := 0
	if ol.window > 0 {
		window = int(o.due / ol.window)
	}
	p.answered(o.query, window, ms)
}
