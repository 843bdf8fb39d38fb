package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
)

// deployment is one workload's data and serving stack.
type deployment struct {
	b  *built
	st *stack
}

func (s spec) bootOpts(cfg config) bootOpts {
	return bootOpts{http: s.rate > 0, router: s.router, workers: cfg.workers}
}

// deploy builds and boots the workload; the time it takes is the
// workload's set-up time.
func (s spec) deploy(cfg config, tr *tracer) (*deployment, float64, error) {
	t0 := time.Now()
	b, err := build(s.sf, cfg.dataSeed, s.shards)
	if err != nil {
		return nil, 0, err
	}
	st, err := boot(b, s.bootOpts(cfg), tr)
	if err != nil {
		return nil, 0, err
	}
	return &deployment{b: b, st: st}, time.Since(t0).Seconds(), nil
}

// setup deploys s.setups times, keeping the last deployment, and
// returns the set-up times with the Generate and NewDB shares.
func (s spec) setup(cfg config) (d *deployment, total, gen, newDB []float64, err error) {
	for i := 0; i < s.setups; i++ {
		if d != nil {
			d.st.stop()
			d = nil
		}
		runtime.GC() // every set-up starts from a collected heap
		var secs float64
		if d, secs, err = s.deploy(cfg, nil); err != nil {
			return nil, nil, nil, nil, err
		}
		total = append(total, secs)
		gen = append(gen, d.b.genS)
		newDB = append(newDB, d.b.newDBS)
	}
	return d, total, gen, newDB, nil
}

// refs builds the reference answers outside every timer: serial
// Unprotected runs on the workload's plain tables, or for the cluster
// on a single-node DB of the same scale factor and seed.
func (s spec) refs(cfg config, d *deployment) (map[string]*ops.Result, error) {
	queries := ssb.QueryNames
	if s.rate == 0 {
		queries = flightQueries
	}
	if s.shards == 1 {
		return references(d.b.dbs[0], queries)
	}
	single, err := build(s.sf, cfg.dataSeed, 1)
	if err != nil {
		return nil, err
	}
	return references(single.dbs[0], queries)
}

// schedule is the open-loop schedule of the timed phase.
func (s spec) schedule(cfg config) []op {
	span := time.Duration(cfg.seconds * float64(time.Second))
	return readSchedule(cfg.seed, s.rate, span, ssb.QueryNames)
}

// openLoopWindows is how many equal windows an open-loop phase is cut
// into for query_ms; flight1-sf1 uses its rounds.
const openLoopWindows = 3

// minFlightRounds gives every (query, mode) pair of flight1-sf1 at
// least four samples, so each query's plan p50 rests on 20.
const minFlightRounds = 4

// measure runs one timed phase against a deployment.
func (s spec) measure(cfg config, d *deployment, refs map[string]*ops.Result, tr *tracer) *phase {
	if s.rate == 0 {
		return runFlight(d.b.dbs[0], d.st.pools[0], refs, cfg.seed, cfg.seconds, minFlightRounds, tr)
	}
	span := int64(cfg.seconds * float64(time.Second))
	ol := &openLoop{client: newClient(cfg.conns), url: d.st.url, conns: cfg.conns, refs: refs, tr: tr,
		window: time.Duration((span + openLoopWindows - 1) / openLoopWindows)} // rounded up: every due falls in one of the windows
	defer ol.client.CloseIdleConnections()
	return ol.run(s.schedule(cfg))
}

// warm runs every query once (every pair, for the library workload)
// before timing, so pools, scratch arenas and connections are set up.
func (s spec) warm(cfg config, d *deployment, refs map[string]*ops.Result) error {
	if s.rate == 0 {
		p := runFlight(d.b.dbs[0], d.st.pools[0], refs, cfg.seed, 0, 1, nil)
		if p.failed > 0 {
			return fmt.Errorf("warm-up: %s", p.mismatch)
		}
		return nil
	}
	ol := &openLoop{client: newClient(cfg.conns), url: d.st.url, conns: 1, refs: refs}
	defer ol.client.CloseIdleConnections()
	var sched []op
	for _, q := range ssb.QueryNames {
		sched = append(sched, op{query: q})
	}
	if p := ol.run(sched); p.failed > 0 {
		return fmt.Errorf("warm-up: %s", p.mismatch)
	}
	return nil
}

// scrape sums a counter over the stack's /metrics endpoints.
func (st *stack) scrape(name string) (float64, error) {
	total := 0.0
	for _, u := range st.urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					resp.Body.Close()
					return 0, err
				}
				total += v
			}
		}
		resp.Body.Close()
	}
	return total, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run executes one benchmark run and assembles its record.
func run(s spec, cfg config) (*record, error) {
	rec := &record{Provenance: newProvenance(s, cfg), Extra: make(map[string]float64)}
	d, setupS, genS, newDBS, err := s.setup(cfg)
	if err != nil {
		return nil, err
	}
	rec.SetupS = setupS
	stopped := false
	defer func() {
		if !stopped {
			d.st.stop()
		}
	}()
	refs, err := s.refs(cfg, d)
	if err != nil {
		return nil, err
	}
	var kernels map[string]metric
	flights := make(map[exec.Mode]float64)
	if cfg.trace {
		if kernels, err = kernelProbes(d.b.dbs[0], d.st.pools[0]); err != nil {
			return nil, err
		}
		if s.rate > 0 {
			if flights, err = flightProbe(d.b.dbs[0], d.st.pools[0], cfg.seed); err != nil {
				return nil, err
			}
		}
	}
	if err := s.warm(cfg, d, refs); err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	p := s.measure(cfg, d, refs, nil)
	rec.Extra["cpu_util"] = (cpuSeconds() - cpu0) / (p.elapsedS * float64(runtime.NumCPU()))
	heap := heapLiveMB()
	storageRatio := float64(d.b.storageBytes(exec.Continuous)) / float64(d.b.storageBytes(exec.Unprotected))

	if len(p.latMS) == 0 {
		return nil, fmt.Errorf("no query answered correctly: %s", p.mismatch)
	}
	queryMS := p.queryMS()
	tooLate := 0
	for _, ms := range p.lateMS {
		if ms > maxLatenessMS {
			tooLate++
		}
	}
	if float64(tooLate) > 0.01*float64(len(p.lateMS)) {
		return nil, fmt.Errorf("invalid run: generator released %d of %d operations more than %.0f ms late, bound 1%%", tooLate, len(p.lateMS), maxLatenessMS)
	}
	rec.addExtras(s, p)
	res := result{
		Correct:   p.failed == 0 && p.mismatch == "",
		Attempted: p.attempted,
		Failed:    p.failed,
	}
	if p.mismatch != "" {
		rec.Mismatch = p.mismatch
	}
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"throughput_qps": {float64(p.correct) / p.elapsedS, "1/s"},
			"query_ms":       {queryMS, "ms"},
			"heap_live_mb":   {heap, "MB"},
			"storage_ratio":  {storageRatio, "ratio"},
		}
		rec.Result = res
		return rec, checkMetrics(res.Metrics, endToEnd)
	}

	// Traced run: the same schedule again with spans recorded at every
	// layer boundary, on a serving stack re-booted over the same data.
	tr := newTracer()
	d.st.stop()
	if d.st, err = boot(d.b, s.bootOpts(cfg), tr); err != nil {
		stopped = true
		return nil, err
	}
	tp := s.measure(cfg, d, refs, tr)
	shed, err := d.st.scrape("ahead_queries_shed_total")
	if err != nil {
		return nil, err
	}
	hedges, err := d.st.scrape("ahead_router_hedges_total")
	if err != nil {
		return nil, err
	}
	d.st.stop()
	stopped = true
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Correct = res.Correct && tp.failed == 0
	if rec.Mismatch == "" {
		rec.Mismatch = tp.mismatch
	}

	// Allocation counts need a quiet process: every server, router and
	// pool of the benchmark has stopped.
	allocs, err := allocsPerQuery(d.b.dbs[0])
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	rep, err := analyze(spans)
	if err != nil {
		return nil, err
	}
	rec.Layers = rep.table()
	if err := writeTrace(".bench_build/trace", rec.base(), spans, rec.Layers); err != nil {
		return nil, err
	}

	tracedMS := tp.queryMS()
	m := map[string]metric{
		"ssb.generate_s":            {median(genS), "s"},
		"exec.newdb_s":              {median(newDBS), "s"},
		"storage.bytes.Unprotected": {float64(d.b.storageBytes(exec.Unprotected)), "bytes"},
		"storage.bytes.Continuous":  {float64(d.b.storageBytes(exec.Continuous)), "bytes"},
		"storage.bitpacked_bytes":   {float64(d.b.bitPackedBytes()), "bytes"},
		"bench.client_share_pct":    {rep.sharePct(spanClient), "%"},
		"cluster.router_share_pct":  {rep.sharePct(spanRouter), "%"},
		"cluster.hop_share_pct":     {rep.sharePct(spanHop), "%"},
		"server.share_pct":          {rep.sharePct(spanServer), "%"},
		"cluster.partial_bytes":     {mean(rep.partialB), "bytes"},
		"cluster.hedges_total":      {hedges, "count"},
		"server.response_bytes":     {mean(rep.responseB), "bytes"},
		"server.shed_total":         {shed, "count"},
		"bench.trace_overhead_pct":  {100 * (tracedMS/queryMS - 1), "%"},
		"bench.samples":             {float64(len(tp.latMS)), "count"},
	}
	for k, v := range kernels {
		m[k] = v
	}
	for k, v := range allocs {
		m[k] = v
	}
	if s.rate == 0 {
		for _, md := range flightModes {
			flights[md] = flightMS(p, md)
		}
	}
	for md, v := range flights {
		m["exec.flight_ms."+md.String()] = metric{v, "ms"}
	}

	// Recovery and adaptation, which no workload's traffic exercises,
	// are timed by standalone probes on the workload's data, now that it
	// is quiet.
	pool := exec.NewPool(cfg.workers)
	healMS, err := healProbe(d.b.dbs[0], pool, cfg.seed)
	pool.Close()
	if err != nil {
		return nil, err
	}
	tickMS := tickProbe(d.b.dbs[0])
	m["adapt.tick_ms.max"] = metric{maxOf(tickMS), "ms"}
	type sampled struct {
		name, unit string
		samples    []float64
	}
	p50s := []sampled{
		{"exec.plan_self_ms", "ms", rep.selfMS[spanPlan]},
		{"cluster.straggler_pct", "%", rep.straggler},
		{"recovery.heal_ms", "ms", healMS},
		{"adapt.tick_ms.p50", "ms", tickMS},
	}
	for _, q := range flightQueries {
		p50s = append(p50s, sampled{"exec.plan_ms." + q, "ms", rep.planMS[q]})
	}
	for _, e := range p50s {
		// Only a router has stragglers: elsewhere there are no samples
		// and the share reads 0.
		v, ok := percentile(e.samples, 0.50)
		if len(e.samples) > 0 && !ok {
			return nil, fmt.Errorf("%s: %d samples, too few for a p50", e.name, len(e.samples))
		}
		m[e.name] = metric{v, e.unit}
	}
	res.Metrics = m
	rec.Result = res
	rec.Extra["traced_query_ms"] = tracedMS
	return rec, checkMetrics(res.Metrics, perLayer)
}
