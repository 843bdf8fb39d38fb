package main

import (
	"fmt"
	"time"

	"ahead/internal/adapt"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/ssb"
)

// The probes below time a layer standalone on the workload's own data
// when the workload's traffic does not exercise it (recovery and adapt
// on every workload, the flight on the HTTP ones), so every per-layer
// timing of a traced run is measured on every workload. probeReps
// calls give a p50 the percentile rule allows.
const (
	probeReps   = 21
	probeRounds = 5
	probeFlips  = 8    // weight-1 flips planted before each healing run
	adaptTarget = 1e-7 // silent-corruption hazard bound per column
)

// adaptPolicy is the adapt probe's controller policy: the shipped
// policy (residue demotion off) with the hazard target of
// scripts/adapt_soak.sh.
func adaptPolicy() adapt.Policy {
	pol := adapt.DefaultPolicy()
	pol.TargetRate = adaptTarget
	return pol
}

// tickProbe attaches a controller to db and times probeReps ticks after
// one untimed tick that builds its models. Clean ticks may relax codes,
// so the probe re-encodes columns as a controller on this data would.
func tickProbe(db *exec.DB) []float64 {
	mgr := adapt.NewManager(db, adaptPolicy())
	mgr.TickOnce()
	ms := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		mgr.TickOnce()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return ms
}

// healProbe times exec.RunWithRecovery of Q1.1 in Continuous mode, each
// run after planting weight-1 flips into lo_discount: the detect,
// repair and retry path of a healing query.
func healProbe(db *exec.DB, pool *exec.Pool, seed int64) ([]float64, error) {
	in := faults.NewInjector(seed)
	ms := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		col, err := db.Hardened("lineorder").Column(kernelColumn)
		if err != nil {
			return nil, err
		}
		if _, err := in.FlipRandom(col, probeFlips, 1); err != nil {
			return nil, fmt.Errorf("heal probe: %w", err)
		}
		t0 := time.Now()
		_, rep, err := exec.RunWithRecovery(db, exec.Continuous, ops.Scalar, ssb.Queries["Q1.1"],
			exec.WithRecoveryRunOptions(exec.WithPool(pool)))
		elapsed := time.Since(t0)
		switch {
		case err != nil:
			return nil, fmt.Errorf("heal probe: %w", err)
		case rep.RepairedCount() == 0 || rep.Degraded:
			return nil, fmt.Errorf("heal probe: planted flips not repaired (%s)", rep)
		}
		ms = append(ms, float64(elapsed.Nanoseconds())/1e6)
	}
	return ms, nil
}

// flightProbe runs probeRounds rounds of flight1-sf1's (query, mode)
// pairs on db and returns each mode's flight time (flightMS).
func flightProbe(db *exec.DB, pool *exec.Pool, seed int64) (map[exec.Mode]float64, error) {
	refs, err := references(db, flightQueries)
	if err != nil {
		return nil, err
	}
	p := runFlight(db, pool, refs, seed, 0, probeRounds, nil)
	if p.failed > 0 {
		return nil, fmt.Errorf("flight probe: %s", p.mismatch)
	}
	out := make(map[exec.Mode]float64, len(flightModes))
	for _, m := range flightModes {
		out[m] = flightMS(p, m)
	}
	return out, nil
}
