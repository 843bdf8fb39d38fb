package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
)

// Span names, one per layer boundary the benchmark can time from
// outside the program. The layer is the part before the dot.
const (
	spanClient = "bench.client"   // HTTP client call, request written to body read
	spanRouter = "cluster.router" // cluster.Router handler
	spanHop    = "cluster.hop"    // router -> shard call, through RouterConfig.Client
	spanServer = "server.handler" // server.Server handler
	spanPlan   = "exec.plan"      // exec.QueryFunc, or the whole exec.Run call without HTTP
)

// layerOrder fixes the row order of the per-layer table.
var layerOrder = []string{spanClient, spanRouter, spanHop, spanServer, spanPlan}

// span is one timed call at a layer boundary. Spans of one request
// share seq; parent is 0 for the request's root span.
type span struct {
	Seq    uint64 `json:"seq"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // response body bytes (handlers, hops)
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64   { return int64(time.Since(t.t0)) }
func (t *tracer) newID() int32 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// traceKey carries a traceCtx in a request context.
type traceKey struct{}

type traceCtx struct {
	seq    uint64
	parent int32
}

const (
	hdrSeq    = "X-Bench-Seq"
	hdrParent = "X-Bench-Parent"
)

func setTraceHeaders(h http.Header, tc traceCtx) {
	h.Set(hdrSeq, strconv.FormatUint(tc.seq, 10))
	h.Set(hdrParent, strconv.FormatInt(int64(tc.parent), 10))
}

func traceFromHeaders(h http.Header) (traceCtx, bool) {
	seq, err1 := strconv.ParseUint(h.Get(hdrSeq), 10, 64)
	parent, err2 := strconv.ParseInt(h.Get(hdrParent), 10, 32)
	return traceCtx{seq: seq, parent: int32(parent)}, err1 == nil && err2 == nil
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedHandler wraps a server or router handler: requests that carry
// the trace headers get a span, and the span's identity travels on in
// the request context (to the plan wrapper and the router's transport).
// Untraced requests (health probes, /metrics scrapes) pass through.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := traceFromHeaders(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.newID(), t.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), traceKey{}, traceCtx{seq: tc.seq, parent: id})))
		t.record(span{Seq: tc.seq, ID: id, Parent: tc.parent, Name: name, Start: start, End: t.now(), Bytes: cw.n})
	})
}

// tracedTransport is the router's client transport in a traced run: a
// shard call made on behalf of a traced request gets a hop span, which
// ends when the shard's body has been read, and carries the request's
// sequence number to the shard in a header.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	id, start := tt.t.newID(), tt.t.now()
	req = req.Clone(req.Context())
	setTraceHeaders(req.Header, traceCtx{seq: tc.seq, parent: id})
	resp, err := tt.base.RoundTrip(req)
	sp := span{Seq: tc.seq, ID: id, Parent: tc.parent, Name: spanHop, Start: start}
	if err != nil {
		sp.End = tt.t.now()
		tt.t.record(sp)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.End, sp.Bytes = tt.t.now(), n
		tt.t.record(sp)
	}}
	return resp, nil
}

// hopBody ends its hop span at EOF or Close, whichever comes first.
type hopBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// tracedPlans wraps every SSB plan for server.Config.Queries. A plan
// sees its request only through the context the server hands to
// exec.Run, which the handler wrapper has tagged.
func tracedPlans(t *tracer) map[string]exec.QueryFunc {
	out := make(map[string]exec.QueryFunc, len(ssb.Queries))
	for name, plan := range ssb.Queries {
		name, plan := name, plan
		out[name] = func(q *exec.Query) (*ops.Result, error) {
			ctx := q.Opts().Ctx
			if ctx == nil {
				return plan(q)
			}
			tc, ok := ctx.Value(traceKey{}).(traceCtx)
			if !ok {
				return plan(q)
			}
			id, start := t.newID(), t.now()
			res, err := plan(q)
			t.record(span{Seq: tc.seq, ID: id, Parent: tc.parent, Name: spanPlan, Query: name, Start: start, End: t.now()})
			return res, err
		}
	}
	return out
}

// request groups one request's spans.
type request struct {
	root     span
	children map[int32][]span
}

func groupRequests(spans []span) ([]request, error) {
	bySeq := make(map[uint64][]span)
	for _, s := range spans {
		bySeq[s.Seq] = append(bySeq[s.Seq], s)
	}
	out := make([]request, 0, len(bySeq))
	for seq, ss := range bySeq {
		r := request{children: make(map[int32][]span)}
		roots := 0
		for _, s := range ss {
			if s.Parent == 0 {
				r.root = s
				roots++
				continue
			}
			r.children[s.Parent] = append(r.children[s.Parent], s)
		}
		if roots != 1 {
			return nil, fmt.Errorf("trace: request %d has %d root spans", seq, roots)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root.Seq < out[j].root.Seq })
	return out, nil
}

// attribute splits a request's root interval into self time per span
// name along the critical path: walking back from a span's end, time
// covered by a child goes to the child whose coverage ends last (the
// one the parent waited for), the rest is the parent's own. Every
// nanosecond of the root lands in exactly one layer, so the layer self
// times of a request add up to its root span, and a parent's share is
// its duration minus the union of its children.
func (r request) attribute(into map[string]int64) {
	var walk func(s span, lo, hi int64)
	walk = func(s span, lo, hi int64) {
		kids := r.children[s.ID]
		t := hi
		for t > lo {
			best, bestEnd := -1, int64(-1)
			for i, k := range kids {
				if k.Start < t && k.End > lo {
					if e := min(k.End, t); e > bestEnd {
						best, bestEnd = i, e
					}
				}
			}
			if best < 0 {
				into[s.Name] += t - lo
				return
			}
			into[s.Name] += t - bestEnd
			k := kids[best]
			from := max(k.Start, lo)
			walk(k, from, bestEnd)
			t = from
		}
	}
	walk(r.root, r.root.Start, r.root.End)
}

// layerReport is what a traced phase yields per layer and per boundary.
type layerReport struct {
	requests  int
	selfMS    map[string][]float64 // per-request critical-path self time, by span name
	planMS    map[string][]float64 // plan span durations by query
	straggler []float64            // slowest minus fastest shard call, % of the router span
	partialB  []float64
	responseB []float64 // server handler response bodies
	rootTotal int64
}

func analyze(spans []span) (*layerReport, error) {
	reqs, err := groupRequests(spans)
	if err != nil {
		return nil, err
	}
	rep := &layerReport{
		requests: len(reqs),
		selfMS:   make(map[string][]float64),
		planMS:   make(map[string][]float64),
	}
	for _, r := range reqs {
		self := make(map[string]int64)
		r.attribute(self)
		var sum int64
		for _, name := range layerOrder {
			sum += self[name]
			rep.selfMS[name] = append(rep.selfMS[name], float64(self[name])/1e6)
		}
		if dur := r.root.End - r.root.Start; sum != dur {
			return nil, fmt.Errorf("trace: request %d: layer self times add to %d ns, root span is %d ns", r.root.Seq, sum, dur)
		}
		rep.rootTotal += r.root.End - r.root.Start
		var visit func(s span)
		visit = func(s span) {
			kids := r.children[s.ID]
			switch s.Name {
			case spanPlan:
				rep.planMS[s.Query] = append(rep.planMS[s.Query], float64(s.End-s.Start)/1e6)
			case spanHop:
				rep.partialB = append(rep.partialB, float64(s.Bytes))
			case spanServer:
				rep.responseB = append(rep.responseB, float64(s.Bytes))
			case spanRouter:
				lo, hi := int64(-1), int64(-1)
				for _, k := range kids {
					if d := k.End - k.Start; lo < 0 || d < lo {
						lo = d
					}
					hi = max(hi, k.End-k.Start)
				}
				if len(kids) > 0 {
					rep.straggler = append(rep.straggler, 100*float64(hi-lo)/float64(s.End-s.Start))
				}
			}
			for _, k := range kids {
				visit(k)
			}
		}
		visit(r.root)
	}
	return rep, nil
}

// sharePct is a layer's self time as a percentage of all request time.
func (rep *layerReport) sharePct(name string) float64 {
	if rep.rootTotal == 0 {
		return 0
	}
	return 100 * sumOf(rep.selfMS[name]) * 1e6 / float64(rep.rootTotal)
}

// table renders the per-layer table: per-request self time by layer
// (they add up to the root span) and each layer's share of all request
// time. A percentile without 10 samples beyond it reads "-".
func (rep *layerReport) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %8s %8s\n", "layer", "self_p50", "self_p99", "self_mean", "share%", "n")
	pct := func(s []float64, q float64) string {
		if v, ok := percentile(s, q); ok {
			return fmt.Sprintf("%.4f", v)
		}
		return "-"
	}
	for _, name := range layerOrder {
		s := rep.selfMS[name]
		fmt.Fprintf(&b, "%-16s %10s %10s %10.4f %8.2f %8d\n", name, pct(s, 0.50), pct(s, 0.99), mean(s), rep.sharePct(name), len(s))
	}
	return b.String()
}

// writeTrace stores the spans and the per-layer table of one traced run.
func writeTrace(dir, base string, spans []span, table string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(dir+"/"+base+".spans.json", data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+base+".layers.txt", []byte(table), 0o644)
}
