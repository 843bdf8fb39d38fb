package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"ahead/internal/ops"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // reversed: percentile must sort
	}
	return out
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // 9 samples beyond the median
		{20, 0.50, 10, true},  // 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// A routed request: client -> router -> three parallel hops -> server
// -> plan. The layer self times must add up to the root span, and the
// router's share is its span minus the union of its hops.
func TestAttributeAddsUpToRoot(t *testing.T) {
	spans := []span{
		{Seq: 1, ID: 1, Name: spanClient, Start: 0, End: 1000},
		{Seq: 1, ID: 2, Parent: 1, Name: spanRouter, Start: 50, End: 950},
		{Seq: 1, ID: 3, Parent: 2, Name: spanHop, Start: 100, End: 500},
		{Seq: 1, ID: 4, Parent: 2, Name: spanHop, Start: 120, End: 800}, // the straggler
		{Seq: 1, ID: 5, Parent: 2, Name: spanHop, Start: 110, End: 300},
		{Seq: 1, ID: 6, Parent: 3, Name: spanServer, Start: 150, End: 450},
		{Seq: 1, ID: 7, Parent: 4, Name: spanServer, Start: 200, End: 700},
		{Seq: 1, ID: 8, Parent: 7, Name: spanPlan, Query: "Q1.1", Start: 250, End: 600},
		{Seq: 1, ID: 9, Parent: 5, Name: spanServer, Start: 150, End: 250},
		// A second request without a router.
		{Seq: 2, ID: 10, Name: spanClient, Start: 0, End: 300},
		{Seq: 2, ID: 11, Parent: 10, Name: spanServer, Start: 20, End: 280},
		{Seq: 2, ID: 12, Parent: 11, Name: spanPlan, Query: "Q2.1", Start: 40, End: 240},
	}
	reqs, err := groupRequests(spans)
	if err != nil {
		t.Fatal(err)
	}
	self := make(map[string]int64)
	reqs[0].attribute(self)
	want := map[string]int64{
		spanClient: 100,               // [0,50) + [950,1000)
		spanRouter: 900 - (800 - 100), // router minus union of hops [100,800)
		spanHop:    (800 - 120) - 500 + (120 - 100),
		spanServer: 500 - 350,
		spanPlan:   350,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self = %v, want %v", self, want)
	}
	rep, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.requests != 2 || rep.rootTotal != 1300 {
		t.Fatalf("requests %d, root total %d", rep.requests, rep.rootTotal)
	}
	total := 0.0
	for _, name := range layerOrder {
		total += rep.sharePct(name)
	}
	if total < 99.999 || total > 100.001 {
		t.Fatalf("layer shares add up to %g%%", total)
	}
	if got := rep.straggler; len(got) != 1 || got[0] != 100*float64(680-190)/900 {
		t.Fatalf("straggler = %v", got)
	}
	if _, err := analyze(append(spans, span{Seq: 2, ID: 13, Name: spanClient, Start: 0, End: 1})); err == nil {
		t.Fatal("a request with two roots must be refused")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	queries := []string{"Q1.1", "Q2.1", "Q3.1"}
	span := 10 * time.Second
	a := readSchedule(7, 100, span, queries)
	b := readSchedule(7, 100, span, queries)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, readSchedule(8, 100, span, queries)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 1000 {
		t.Fatalf("%d arrivals, want rate*span = 1000", len(a))
	}
	for i, o := range a {
		if o.due < 0 || o.due >= span || (i > 0 && o.due < a[i-1].due) {
			t.Fatalf("arrival %d at %v is out of order or out of span", i, o.due)
		}
	}

}

func TestDiffNamesFirstDivergingCell(t *testing.T) {
	ref := &ops.Result{Keys: [][]uint64{{1, 2}, {3, 4}}, Aggs: []uint64{10, 20}}
	if d := diff(ref, [][]uint64{{1, 2}, {3, 4}}, []uint64{10, 20}); d != "" {
		t.Fatalf("equal answers reported as %q", d)
	}
	if d := diff(ref, [][]uint64{{1, 2}, {3, 5}}, []uint64{10, 20}); d != "row 1 key 1 = 5, reference 4" {
		t.Fatalf("diff = %q", d)
	}
	if d := diff(ref, [][]uint64{{1, 2}, {3, 4}}, []uint64{10, 21}); d != "row 1 aggregate = 21, reference 20" {
		t.Fatalf("diff = %q", d)
	}
	if d := diff(ref, [][]uint64{{1, 2}}, []uint64{10}); d == "" {
		t.Fatal("missing row not reported")
	}
}

// The declared metric sets are the ones BENCHMARK.json lists.
func TestMetricListsMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		got := make(map[string]metric)
		for _, m := range c.listed {
			got[m.Name] = metric{Unit: m.Unit}
		}
		if err := checkMetrics(got, c.want); err != nil {
			t.Error(err)
		}
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 20}, {30, 40}, {35, 38}, {55, 70}}
	if got := unionLen(iv); got != 20+10+20 {
		t.Fatalf("unionLen = %d, want 50", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Fatalf("unionLen(nil) = %d, want 0", got)
	}
}
