package main

import (
	"fmt"
	"sort"
	"strings"
)

// endToEnd names every metric an untraced run reports, with its unit.
// BENCHMARK.json lists the same set (checked by TestMetricListsMatch).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"throughput_qps": "1/s",
	"query_ms":       "ms",
	"heap_live_mb":   "MB",
	"storage_ratio":  "ratio",
}

// perLayer names every metric a traced run reports, with its unit.
// Every timing is measured on every workload: from the traffic where
// the workload exercises the layer, by a standalone probe on its data
// where it does not. Shares and counts of a layer the traffic does not
// reach read 0.
var perLayer = map[string]string{
	"ssb.generate_s":            "s",
	"exec.newdb_s":              "s",
	"storage.bytes.Unprotected": "bytes",
	"storage.bytes.Continuous":  "bytes",
	"storage.bitpacked_bytes":   "bytes",

	"ops.filter_ns_per_row.Unprotected":     "ns",
	"ops.filter_ns_per_row.Late":            "ns",
	"ops.filter_ns_per_row.Continuous":      "ns",
	"ops.filter_wide_ns_per_row.Continuous": "ns",
	"ops.filter_pool_ns_per_row.Continuous": "ns",
	"ops.delta_ns_per_row":                  "ns",
	"ops.bytes_per_row.packed":              "bytes",
	"ops.bytes_per_row.wide":                "bytes",

	"exec.plan_ms.Q1.1":          "ms",
	"exec.plan_ms.Q1.2":          "ms",
	"exec.plan_ms.Q1.3":          "ms",
	"exec.plan_self_ms":          "ms",
	"exec.allocs_per_query.Q1.1": "count",
	"exec.allocs_per_query.Q2.1": "count",
	"exec.allocs_per_query.Q3.1": "count",
	"exec.allocs_per_query.Q4.1": "count",
	"exec.flight_ms.Unprotected": "ms",
	"exec.flight_ms.Late":        "ms",
	"exec.flight_ms.Continuous":  "ms",
	"exec.flight_ms.Reencoding":  "ms",
	"exec.flight_ms.Early":       "ms",

	"recovery.heal_ms":  "ms",
	"adapt.tick_ms.p50": "ms",
	"adapt.tick_ms.max": "ms",

	"bench.client_share_pct":   "%",
	"cluster.router_share_pct": "%",
	"cluster.hop_share_pct":    "%",
	"server.share_pct":         "%",
	"server.response_bytes":    "bytes",
	"server.shed_total":        "count",
	"cluster.straggler_pct":    "%",
	"cluster.partial_bytes":    "bytes",
	"cluster.hedges_total":     "count",
	"bench.trace_overhead_pct": "%",
	"bench.samples":            "count",
}

// checkMetrics refuses a result whose metric names or units differ from
// the declared set.
func checkMetrics(got map[string]metric, want map[string]string) error {
	var bad []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, "missing "+name)
		case m.Unit != unit:
			bad = append(bad, fmt.Sprintf("%s in %s, declared %s", name, m.Unit, unit))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, "undeclared "+name)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("metrics do not match the declared set: %s", strings.Join(bad, "; "))
	}
	return nil
}
