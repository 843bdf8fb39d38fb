package main

import (
	"fmt"
	"testing"
	"time"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// kernelColumn is the column the kernel probes scan: lo_discount is
// narrow enough to carry a packed lane mirror under every code the
// benchmark uses, and Q1.x filters it over the whole fact table.
const kernelColumn = "lo_discount"

// timeKernel repeats fn until it has run at least minReps times and for
// at least 200 ms, and returns the median nanoseconds per row.
func timeKernel(rows int, fn func() error) (float64, error) {
	const minReps = 11
	var per []float64
	begin := time.Now()
	for len(per) < minReps || time.Since(begin) < 200*time.Millisecond {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(rows))
		if len(per) >= 10000 {
			break
		}
	}
	return median(per), nil
}

// kernelProbes times the scan kernels standalone, outside any plan, on
// the workload's own lineorder column: the filter under each mode's
// options (serial, plus the pooled and the wide-kernel twins of
// Continuous) and Early's Δ decode.
func kernelProbes(db *exec.DB, pool *exec.Pool) (map[string]metric, error) {
	plain, err := db.Plain("lineorder").Column(kernelColumn)
	if err != nil {
		return nil, err
	}
	hard, err := db.Hardened("lineorder").Column(kernelColumn)
	if err != nil {
		return nil, err
	}
	rows := hard.Len()
	const lo, hi = 1, 3 // Q1.1's discount range
	filter := func(c *storage.Column, o *ops.Opts) func() error {
		return func() error {
			_, err := ops.Filter(c, lo, hi, o)
			return err
		}
	}
	checked := func() *ops.Opts { return &ops.Opts{Detect: true, HardenIDs: true, Log: ops.NewErrorLog()} }
	out := make(map[string]metric)
	probes := []struct {
		name string
		fn   func() error
	}{
		{"ops.filter_ns_per_row.Unprotected", filter(plain, &ops.Opts{})},
		{"ops.filter_ns_per_row.Late", filter(hard, &ops.Opts{})},
		{"ops.filter_ns_per_row.Continuous", filter(hard, checked())},
		{"ops.filter_wide_ns_per_row.Continuous", filter(hard, func() *ops.Opts { o := checked(); o.NoPacked = true; return o }())},
		{"ops.filter_pool_ns_per_row.Continuous", filter(hard, func() *ops.Opts { o := checked(); o.Par = pool; return o }())},
		{"ops.delta_ns_per_row", func() error {
			_, err := ops.Delta(hard, ops.NewErrorLog())
			return err
		}},
	}
	for _, p := range probes {
		v, err := timeKernel(rows, p.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = metric{v, "ns"}
	}
	packed := float64(hard.Width())
	if l := hard.Packed(); l != nil {
		packed = 8 / float64(l.PerWord())
	}
	out["ops.bytes_per_row.packed"] = metric{packed, "bytes"}
	out["ops.bytes_per_row.wide"] = metric{float64(hard.Width()), "bytes"}
	return out, nil
}

// allocQueries are the queries whose allocation counts the serial
// Continuous replay reports, one per flight.
var allocQueries = []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"}

// allocsPerQuery counts heap allocations of a serial Continuous run of
// each query. Run it with no other goroutine of the benchmark alive:
// the count covers the whole process.
func allocsPerQuery(db *exec.DB) (map[string]metric, error) {
	out := make(map[string]metric)
	for _, q := range allocQueries {
		var runErr error
		n := testing.AllocsPerRun(5, func() {
			if _, _, err := exec.Run(db, exec.Continuous, ops.Scalar, ssb.Queries[q]); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("allocs %s: %w", q, runErr)
		}
		out["exec.allocs_per_query."+q] = metric{n, "count"}
	}
	return out, nil
}
