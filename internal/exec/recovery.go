// Self-healing query execution: the detect → repair → retry loop that
// turns AHEAD's value-granular *detection* (the paper's contribution)
// into *recovery* (the correction Section 9 sketches). A query runs under
// any hardened mode; when the error log comes back non-empty the results
// are untrusted, so the affected base columns are repaired from the plain
// replica and the query re-runs under a bounded retry budget. Transient
// flips heal on the first retry. Persistent (stuck-at) faults re-corrupt
// repaired words, exhaust the budget, and escalate: the column is
// quarantined and the run either fails with a structured
// *UnrecoverableError or - when the caller opted in - degrades to DMR
// over the plain replicas, which a hardened-data fault cannot touch.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"ahead/internal/ops"
)

// DefaultMaxRetries is the repair-and-retry budget of RunWithRecovery:
// the number of re-executions after repair before a still-corrupt column
// is declared unrecoverable. One retry heals any transient flip; the
// second distinguishes "new flip arrived during the retry" from
// "the same word is stuck".
const DefaultMaxRetries = 2

// RecoveryOption tunes one supervised execution.
type RecoveryOption func(*recoveryCfg)

type recoveryCfg struct {
	maxRetries int
	fallback   bool
	runOpts    []RunOption
	reassert   func()
}

// WithMaxRetries sets the repair-and-retry budget (re-executions after
// the initial run; n < 0 means 0).
func WithMaxRetries(n int) RecoveryOption {
	return func(c *recoveryCfg) {
		if n < 0 {
			n = 0
		}
		c.maxRetries = n
	}
}

// WithDegradedFallback enables the escalation of last resort: when the
// retry budget is exhausted the affected columns are quarantined and the
// query re-runs once under DMR over the plain replicas - slower and
// without value-granular detection, but independent of the faulty
// hardened storage. Without the fallback, exhaustion returns a
// structured *UnrecoverableError.
func WithDegradedFallback(on bool) RecoveryOption {
	return func(c *recoveryCfg) { c.fallback = on }
}

// WithRecoveryRunOptions forwards Run options (WithPool, WithParallelism)
// to every attempt, including the degraded fallback.
func WithRecoveryRunOptions(opts ...RunOption) RecoveryOption {
	return func(c *recoveryCfg) { c.runOpts = append(c.runOpts, opts...) }
}

// WithReassert installs the persistent-fault hook: it runs after every
// repair pass, before the retry. Real stuck-at cells reassert themselves
// in hardware; simulations and tests pass faults.StuckSet.Reassert here
// (wrapped in a closure) to model them. Production callers leave it nil.
func WithReassert(f func()) RecoveryOption {
	return func(c *recoveryCfg) { c.reassert = f }
}

// RecoveryReport describes what a supervised execution did.
type RecoveryReport struct {
	// Mode is the requested execution mode; FinalMode is the mode that
	// produced the returned result (DMR after a degraded fallback).
	Mode      Mode
	FinalMode Mode
	// Attempts counts query executions under Mode (1 = clean first run).
	// The degraded fallback run is not counted here.
	Attempts int
	// Repaired maps each base column to the distinct positions repaired
	// from the plain replica, sorted, unioned across attempts.
	Repaired map[string][]uint64
	// Intermediate counts detections in vec: intermediates - transient
	// operator-output corruption that re-execution recomputes; nothing
	// to repair.
	Intermediate int
	// Quarantined lists base columns whose corruption survived the
	// budget and were quarantined during this run, sorted.
	Quarantined []string
	// Degraded reports that the returned result came from the DMR
	// fallback over the plain replicas.
	Degraded bool
}

// RepairedCount returns the total number of distinct repaired positions
// across all columns.
func (r *RecoveryReport) RepairedCount() int {
	n := 0
	for _, ps := range r.Repaired {
		n += len(ps)
	}
	return n
}

// RepairedColumns returns the sorted base columns the run repaired.
func (r *RecoveryReport) RepairedColumns() []string {
	out := make([]string, 0, len(r.Repaired))
	for c := range r.Repaired {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two reports describe the identical recovery -
// the serial-vs-parallel equivalence check: morsel-parallel execution
// must detect, repair and retry exactly as the serial run does.
func (r *RecoveryReport) Equal(other *RecoveryReport) bool {
	if r == nil || other == nil {
		return r == other
	}
	if r.Mode != other.Mode || r.FinalMode != other.FinalMode ||
		r.Attempts != other.Attempts || r.Intermediate != other.Intermediate ||
		r.Degraded != other.Degraded || len(r.Repaired) != len(other.Repaired) ||
		len(r.Quarantined) != len(other.Quarantined) {
		return false
	}
	for i, c := range r.Quarantined {
		if other.Quarantined[i] != c {
			return false
		}
	}
	for c, ps := range r.Repaired {
		qs, ok := other.Repaired[c]
		if !ok || len(ps) != len(qs) {
			return false
		}
		for i, p := range ps {
			if qs[i] != p {
				return false
			}
		}
	}
	return true
}

// String renders the report compactly for logs and CLI output.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempts=%d repaired=%d", r.Attempts, r.RepairedCount())
	if cols := r.RepairedColumns(); len(cols) > 0 {
		fmt.Fprintf(&b, " columns=%s", strings.Join(cols, ","))
	}
	if r.Intermediate > 0 {
		fmt.Fprintf(&b, " intermediate=%d", r.Intermediate)
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&b, " quarantined=%s", strings.Join(r.Quarantined, ","))
	}
	if r.Degraded {
		fmt.Fprintf(&b, " degraded=%v", r.FinalMode)
	}
	return b.String()
}

// UnrecoverableError is the structured failure of a supervised
// execution: corruption survived the full repair-and-retry budget (or
// struck an already-quarantined column) and no degraded fallback was
// available. Columns lists the offending error-log columns.
type UnrecoverableError struct {
	Columns  []string
	Attempts int
	// Fallback carries the degraded DMR run's own error when the
	// fallback was enabled but failed too; nil otherwise.
	Fallback error
}

func (e *UnrecoverableError) Error() string {
	msg := fmt.Sprintf("exec: unrecoverable corruption in %s after %d attempts",
		strings.Join(e.Columns, ", "), e.Attempts)
	if e.Fallback != nil {
		msg += fmt.Sprintf("; degraded DMR fallback failed: %v", e.Fallback)
	}
	return msg
}

// Unwrap exposes the fallback error for errors.Is/As chains.
func (e *UnrecoverableError) Unwrap() error { return e.Fallback }

// RunWithRecovery executes the plan under the given mode with supervised
// recovery. The state machine:
//
//	run ──clean──▶ done
//	 │ detections
//	 ▼
//	repair base columns from the plain replica, retry (≤ MaxRetries)
//	 │ budget spent or column already quarantined
//	 ▼
//	repair fresh positions; quarantine columns whose repaired words
//	were detected again (stuck-at) or that were already quarantined
//	 │
//	 ▼
//	escalate ──WithDegradedFallback──▶ DMR over plain replicas
//	 │ otherwise                                   │ voter disagrees
//	 ▼                                             ▼
//	*UnrecoverableError                        *UnrecoverableError
//
// Modes without hardened base data (Unprotected, DMR, TMR) have no
// value-granular detections to act on; they execute once and the report
// records a single attempt. The whole loop holds the DB's recovery lock,
// so concurrent supervised executions serialize their repair phases
// against each other (the attempts themselves still run morsel-parallel
// on the attached pool).
func RunWithRecovery(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, opts ...RecoveryOption) (*ops.Result, *RecoveryReport, error) {
	cfg := recoveryCfg{maxRetries: DefaultMaxRetries}
	for _, o := range opts {
		o(&cfg)
	}
	rep := &RecoveryReport{Mode: m, FinalMode: m, Repaired: make(map[string][]uint64)}

	if !m.UsesHardenedData() {
		res, _, err := Run(db, m, flavor, plan, cfg.runOpts...)
		rep.Attempts = 1
		return res, rep, err
	}

	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()

	repairedSets := make(map[string]map[uint64]bool)
	for {
		rep.Attempts++
		res, log, err := Run(db, m, flavor, plan, cfg.runOpts...)
		if err != nil {
			// Structural failure (schema error, corrupted error
			// vector): not a detection, nothing to repair.
			return nil, rep, err
		}
		base, vec := log.PartitionColumns()
		for _, v := range vec {
			ps, err := log.Positions(v)
			if err != nil {
				return nil, rep, err
			}
			rep.Intermediate += len(ps)
		}
		if log.Count() == 0 {
			finalizeRepaired(rep, repairedSets)
			return res, rep, nil
		}

		// Detections mean the computed result is untrusted. Decide
		// whether another repair-and-retry round is allowed.
		exhausted := rep.Attempts > cfg.maxRetries
		for _, c := range base {
			if db.IsQuarantined(c) {
				exhausted = true // known-bad column: do not loop again
			}
		}
		if exhausted {
			stuck, err := db.repairFresh(log, base, repairedSets)
			finalizeRepaired(rep, repairedSets)
			if err != nil {
				return nil, rep, err
			}
			return escalate(db, m, flavor, plan, &cfg, rep, stuck, append(base, vec...))
		}

		// Repair phase: base columns from the plain replica;
		// vec: intermediates are recomputed by the retry itself.
		for _, c := range base {
			table, ok := db.TableOf(c)
			if !ok {
				finalizeRepaired(rep, repairedSets)
				return nil, rep, fmt.Errorf("exec: cannot attribute error-log column %q to a table for repair", c)
			}
			positions, err := log.Positions(c)
			if err == nil {
				err = db.repairRound(table, c, positions, repairedSets)
			}
			if err != nil {
				finalizeRepaired(rep, repairedSets)
				return nil, rep, err
			}
		}
		if cfg.reassert != nil {
			cfg.reassert() // persistent faults re-corrupt repaired words here
		}
	}
}

// repairRound repairs one column's detected positions and adds them to
// the column's set of repaired positions. Out-of-range positions cannot
// be repaired; they are unrecoverable attribution damage, not a reason
// to loop again.
func (db *DB) repairRound(table, column string, positions []uint64, sets map[string]map[uint64]bool) error {
	repaired, skipped, err := db.repairPositions(table, column, positions)
	if err != nil {
		return err
	}
	if len(skipped) > 0 {
		return fmt.Errorf("exec: %d repair positions beyond column %q (first %d)", len(skipped), column, skipped[0])
	}
	set := sets[column]
	if set == nil {
		set = make(map[uint64]bool, len(repaired))
		sets[column] = set
	}
	for _, p := range repaired {
		set[p] = true
	}
	return nil
}

// repairFresh sorts the detected base columns of a run that exhausted
// its budget. Only stuck evidence quarantines a column: a position that
// an earlier round already repaired shows up again. A column already
// quarantined, or one that cannot be attributed to a table, counts as
// stuck too. Every other column's detections are fresh flips that
// arrived between retries; they are repaired here and the column stays
// in service. It returns the columns to quarantine.
func (db *DB) repairFresh(log *ops.ErrorLog, base []string, sets map[string]map[uint64]bool) ([]string, error) {
	var stuck []string
	for _, c := range base {
		positions, err := log.Positions(c)
		if err != nil {
			return nil, err
		}
		table, ok := db.TableOf(c)
		if !ok || db.IsQuarantined(c) || anyIn(positions, sets[c]) {
			stuck = append(stuck, c)
			continue
		}
		if err := db.repairRound(table, c, positions, sets); err != nil {
			return nil, err
		}
	}
	return stuck, nil
}

func anyIn(positions []uint64, set map[uint64]bool) bool {
	for _, p := range positions {
		if set[p] {
			return true
		}
	}
	return false
}

// escalate quarantines the stuck columns and either degrades to DMR over
// the plain replicas or returns the structured failure naming every
// column with detections (bad).
func escalate(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, cfg *recoveryCfg, rep *RecoveryReport, stuck, bad []string) (*ops.Result, *RecoveryReport, error) {
	for _, c := range stuck {
		if !db.IsQuarantined(c) {
			db.QuarantineColumn(c)
		}
		rep.Quarantined = append(rep.Quarantined, c)
	}
	sort.Strings(rep.Quarantined)
	if !cfg.fallback {
		return nil, rep, &UnrecoverableError{Columns: bad, Attempts: rep.Attempts}
	}
	res, _, err := Run(db, DMR, flavor, plan, cfg.runOpts...)
	if err != nil {
		return nil, rep, &UnrecoverableError{Columns: bad, Attempts: rep.Attempts, Fallback: err}
	}
	rep.Degraded = true
	rep.FinalMode = DMR
	return res, rep, nil
}

// finalizeRepaired turns the per-column position sets into the sorted
// slices of the report.
func finalizeRepaired(rep *RecoveryReport, sets map[string]map[uint64]bool) {
	for c, set := range sets {
		ps := make([]uint64, 0, len(set))
		for p := range set {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		rep.Repaired[c] = ps
	}
}
