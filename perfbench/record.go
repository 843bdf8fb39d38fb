package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"ahead/internal/exec"
)

// provenance records where and how a result was measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	DataSeed   int64   `json:"data_seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	SF         float64 `json:"sf"`
	Shards     int     `json:"shards"`
	Loop       string  `json:"loop"`
	RateQPS    float64 `json:"offered_rate_qps"`
	Conns      int     `json:"connections"`
	Workers    int     `json:"pool_workers"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

func newProvenance(s spec, cfg config) provenance {
	p := provenance{
		Workload: s.name, Seed: cfg.seed, DataSeed: cfg.dataSeed, Seconds: cfg.seconds, Trace: cfg.trace,
		SF: s.sf, Shards: s.shards, Loop: "open", RateQPS: s.rate, Conns: cfg.conns, Workers: cfg.workers,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", SourceHash: sourceHash("."),
	}
	if s.rate == 0 {
		p.Loop, p.Conns = "closed", 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				p.Commit = kv.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root, so records
// of one source tree match even where no VCS revision is available.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is everything one run measured.
type record struct {
	Provenance provenance         `json:"provenance"`
	Result     result             `json:"result"`
	Extra      map[string]float64 `json:"extra"`
	SetupS     []float64          `json:"setup_runs_s"`
	Mismatch   string             `json:"mismatch,omitempty"`
	Layers     string             `json:"-"` // per-layer table of a traced run
}

func (r *record) base() string {
	return fmt.Sprintf("%s-seed%d-trace%d", r.Provenance.Workload, r.Provenance.Seed, b2i(r.Provenance.Trace))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *record) save() error {
	dir := ".bench_build/results"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.base()+".json"), data, 0o644)
}

// addExtras keeps the figures that only some workloads have: the tail
// percentile where enough samples exist, the failure ratio, the open
// loop's busy share, and flight1-sf1's per-mode flight times.
func (r *record) addExtras(s spec, p *phase) {
	r.Extra["latency_samples"] = float64(len(p.latMS))
	if v, ok := percentile(p.latMS, 0.99); ok {
		r.Extra["latency_p99_ms"] = v
	}
	if p.attempted > 0 {
		r.Extra["failed_ratio"] = float64(p.failed) / float64(p.attempted)
	}
	if len(p.inflight) > 0 && p.elapsedS > 0 {
		r.Extra["busy_share"] = float64(unionLen(p.inflight)) / (p.elapsedS * 1e9)
	}
	if v, ok := percentile(p.lateMS, 0.99); ok {
		r.Extra["lateness_p99_ms"] = v
	}
	r.Extra["lateness_max_ms"] = maxOf(p.lateMS)
	for k, v := range p.byKey {
		if med, ok := percentile(v, 0.5); ok {
			r.Extra["p50_ms."+k] = med
		}
	}
	if v, ok := percentile(p.latMS, 0.50); ok {
		r.Extra["latency_p50_ms"] = v
	}
	if s.rate == 0 {
		for _, m := range flightModes {
			r.Extra["flight_ms."+m.String()] = flightMS(p, m)
		}
	}
}

// flightMS is flight1-sf1's time for one mode: the sum over Q1.1-Q1.3
// of each query's mean latency in that mode (0 on other workloads).
func flightMS(p *phase, m exec.Mode) float64 {
	sum := 0.0
	for _, q := range flightQueries {
		if v := p.byKey[q+"|"+m.String()]; len(v) > 0 {
			sum += mean(v)
		}
	}
	return sum
}

// print writes the human-readable report: provenance, every metric by
// name with its unit, the extra figures and, for a traced run, the
// per-layer table.
func (r *record) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "# %s seed=%d data_seed=%d sf=%g shards=%d loop=%s rate=%g conns=%d workers=%d\n",
		p.Workload, p.Seed, p.DataSeed, p.SF, p.Shards, p.Loop, p.RateQPS, p.Conns, p.Workers)
	fmt.Fprintf(w, "# machine: %d CPUs, GOMAXPROCS %d, %s, %s %s, commit %s, source %.12s\n",
		p.NumCPU, p.GOMAXPROCS, p.CPUModel, p.GoVersion, p.Platform, p.Commit, p.SourceHash)
	for _, k := range sortedKeys(r.Result.Metrics) {
		m := r.Result.Metrics[k]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "%-40s %14.6g (extra)\n", k, r.Extra[k])
	}
	fmt.Fprint(w, r.Layers)
	if r.Mismatch != "" {
		fmt.Fprintf(w, "FAILED: %s\n", r.Mismatch)
	}
}

// comparable lists the provenance fields two records must share for
// their numbers to be compared.
func comparable(a, b provenance) []string {
	var diffs []string
	check := func(name string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	check("num_cpu", a.NumCPU, b.NumCPU)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("go_version", a.GoVersion, b.GoVersion)
	check("platform", a.Platform, b.Platform)
	check("workload", a.Workload, b.Workload)
	check("sf", a.SF, b.SF)
	check("shards", a.Shards, b.Shards)
	check("offered_rate_qps", a.RateQPS, b.RateQPS)
	check("connections", a.Conns, b.Conns)
	check("pool_workers", a.Workers, b.Workers)
	check("seconds", a.Seconds, b.Seconds)
	check("trace", a.Trace, b.Trace)
	return diffs
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(record)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareMain prints two records side by side, or refuses when they
// come from different machine contexts or workload settings.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	a, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if diffs := comparable(a.Provenance, b.Provenance); len(diffs) > 0 {
		fmt.Printf("NOT COMPARABLE: %s\n", strings.Join(diffs, "; "))
		return 3
	}
	fmt.Printf("%-40s %14s %14s %9s\n", "metric", "A", "B", "B/A")
	for _, k := range sortedKeys(a.Result.Metrics) {
		x := a.Result.Metrics[k]
		y, ok := b.Result.Metrics[k]
		if !ok {
			fmt.Printf("%-40s %14.6g %14s %9s\n", k, x.Value, "-", "-")
			continue
		}
		ratio := "-"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.3f", y.Value/x.Value)
		}
		fmt.Printf("%-40s %14.6g %14.6g %9s %s\n", k, x.Value, y.Value, ratio, x.Unit)
	}
	return 0
}
