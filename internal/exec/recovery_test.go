package exec

import (
	"errors"
	"reflect"
	"testing"

	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func recoveryDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func unprotectedRef(t *testing.T, db *DB) *ops.Result {
	t.Helper()
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestRecoveryCleanRun(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.RepairedCount() != 0 || rep.Degraded || len(rep.Quarantined) != 0 {
		t.Fatalf("clean run report: %v", rep)
	}
	if !res.Equal(ref) {
		t.Fatal("clean run result differs from baseline")
	}
}

// TestRecoveryTransient is the acceptance path: injected transient flips
// are detected on the fly, repaired from the plain replica, and the
// retry returns the fault-free answer plus a report of the repaired
// positions.
func TestRecoveryTransient(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	w := db.Hardened("t").MustColumn("w")
	inj := faults.NewInjector(21)
	for _, pos := range []int{15, 16} { // inside the sumPlan filter range
		if _, err := inj.FlipAt(w, pos, 2); err != nil {
			t.Fatal(err)
		}
	}

	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Fatal("recovered result differs from the fault-free answer")
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (one repair round)", rep.Attempts)
	}
	if got := rep.Repaired["w"]; !reflect.DeepEqual(got, []uint64{15, 16}) {
		t.Fatalf("repaired positions %v, want [15 16]", got)
	}
	if rep.RepairedCount() != 2 || !reflect.DeepEqual(rep.RepairedColumns(), []string{"w"}) {
		t.Fatalf("repair accounting: %v", rep)
	}
	if rep.Intermediate == 0 {
		t.Fatal("gathered intermediates must have logged vec: detections")
	}
	if rep.Degraded || len(rep.Quarantined) != 0 || rep.FinalMode != Continuous {
		t.Fatalf("transient recovery must not escalate: %v", rep)
	}
	if bad, err := w.CheckAll(); err != nil || len(bad) != 0 {
		t.Fatalf("column not clean after recovery: %v, %v", bad, err)
	}
}

// TestRecoveryStuckAtQuarantines is the other acceptance path: a
// persistent fault survives every repair, exhausts the retry budget,
// quarantines the column, and yields a structured unrecoverable error
// instead of looping. A subsequent run short-circuits on the quarantine,
// and enabling the degraded fallback then still answers the query via
// DMR over the plain replicas.
func TestRecoveryStuckAtQuarantines(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	w := db.Hardened("t").MustColumn("w")
	set := faults.NewStuckSet()
	if _, err := set.StickAt(faults.NewInjector(33), w, 15, 2); err != nil {
		t.Fatal(err)
	}

	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("want *UnrecoverableError, got %v", err)
	}
	if res != nil {
		t.Fatal("unrecoverable run must not return a result")
	}
	if rep.Attempts != 1+DefaultMaxRetries {
		t.Fatalf("attempts %d, want %d (budget exhaustion, not an endless loop)", rep.Attempts, 1+DefaultMaxRetries)
	}
	if !reflect.DeepEqual(rep.Quarantined, []string{"w"}) || !db.IsQuarantined("w") {
		t.Fatalf("column not quarantined: %v", rep)
	}
	if unrec.Attempts != rep.Attempts || len(unrec.Columns) == 0 || unrec.Columns[0] != "w" {
		t.Fatalf("structured error: %+v", unrec)
	}
	if got := rep.Repaired["w"]; !reflect.DeepEqual(got, []uint64{15}) {
		t.Fatalf("stuck position must be repaired (and re-corrupted) each round: %v", got)
	}

	// Second supervised run: the quarantine short-circuits the budget.
	_, rep2, err2 := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }))
	if !errors.As(err2, &unrec) {
		t.Fatalf("quarantined column must stay unrecoverable, got %v", err2)
	}
	if rep2.Attempts != 1 {
		t.Fatalf("quarantined column burned %d attempts, want 1", rep2.Attempts)
	}

	// Degraded fallback: DMR over the plain replicas is untouched by the
	// hardened-data fault and still answers correctly.
	resD, repD, errD := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }), WithDegradedFallback(true))
	if errD != nil {
		t.Fatal(errD)
	}
	if !repD.Degraded || repD.FinalMode != DMR || repD.Attempts != 1 {
		t.Fatalf("fallback report: %v", repD)
	}
	if !resD.Equal(ref) {
		t.Fatal("degraded DMR result differs from the fault-free answer")
	}

	// After hardware replacement: release the fault, scrub, lift the
	// quarantine - the hardened path recovers fully.
	set.Release()
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 1 {
		t.Fatalf("scrub repaired %v, want t.w:1", repaired)
	}
	db.ClearQuarantine("w")
	resC, repC, errC := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if errC != nil || repC.Attempts != 1 || !resC.Equal(ref) {
		t.Fatalf("post-scrub run: %v %v", repC, errC)
	}
}

// TestRecoveryStuckAtDegradedFallbackDirect exhausts the budget with the
// fallback already enabled on a fresh DB.
func TestRecoveryStuckAtDegradedFallbackDirect(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	set := faults.NewStuckSet()
	if _, err := set.StickAt(faults.NewInjector(5), db.Hardened("t").MustColumn("w"), 16, 2); err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }), WithDegradedFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1+DefaultMaxRetries || !rep.Degraded || rep.FinalMode != DMR {
		t.Fatalf("report: %v", rep)
	}
	if !reflect.DeepEqual(rep.Quarantined, []string{"w"}) {
		t.Fatalf("quarantine: %v", rep.Quarantined)
	}
	if !res.Equal(ref) {
		t.Fatal("degraded result differs from the fault-free answer")
	}
}

// TestRecoveryFreshFlipsAreNotQuarantined: a new transient flip lands at
// a new position before every retry, so the budget runs out although no
// word is stuck. Only a position seen again after its repair is stuck
// evidence; here every detection is fresh, so the last round's flip is
// repaired too, the column stays in service, and the report lists all
// three positions as repaired.
func TestRecoveryFreshFlipsAreNotQuarantined(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		db := recoveryDB(t)
		ref := unprotectedRef(t, db)
		w := db.Hardened("t").MustColumn("w")
		inj := faults.NewInjector(9)
		fresh := []int{12, 15, 61} // inside the sumPlan filter range
		if _, err := inj.FlipAt(w, fresh[0], 2); err != nil {
			t.Fatal(err)
		}
		next := 1
		reassert := func() {
			if next < len(fresh) {
				if _, err := inj.FlipAt(w, fresh[next], 2); err != nil {
					t.Error(err)
				}
				next++
			}
		}

		res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
			WithReassert(reassert), WithDegradedFallback(fallback))
		if rep.Attempts != 1+DefaultMaxRetries {
			t.Fatalf("fallback=%v: attempts %d, want %d", fallback, rep.Attempts, 1+DefaultMaxRetries)
		}
		if fallback {
			if err != nil || !rep.Degraded || !res.Equal(ref) {
				t.Fatalf("fallback run: %v, %v", rep, err)
			}
		} else {
			var unrec *UnrecoverableError
			if !errors.As(err, &unrec) {
				t.Fatalf("want *UnrecoverableError, got %v", err)
			}
		}
		if len(rep.Quarantined) != 0 || db.IsQuarantined("w") {
			t.Fatalf("fallback=%v: fresh flips quarantined the column: %v", fallback, rep)
		}
		if got := rep.Repaired["w"]; !reflect.DeepEqual(got, []uint64{12, 15, 61}) {
			t.Fatalf("fallback=%v: repaired %v, want [12 15 61]", fallback, got)
		}
		if bad, err := w.CheckAll(); err != nil || len(bad) != 0 {
			t.Fatalf("fallback=%v: column not clean after escalation: %v, %v", fallback, bad, err)
		}
		resC, repC, errC := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
		if errC != nil || repC.Attempts != 1 || !resC.Equal(ref) {
			t.Fatalf("fallback=%v: next run not clean: %v %v", fallback, repC, errC)
		}
	}
}

// TestRecoveryParallelMatchesSerial injects identical transient faults
// into two DBs and supervises one serially, one on a small-morsel pool:
// results and RecoveryReports must be identical (the PR 1 equivalence
// invariant extended through the recovery loop).
func TestRecoveryParallelMatchesSerial(t *testing.T) {
	inject := func(db *DB) {
		w := db.Hardened("t").MustColumn("w")
		inj := faults.NewInjector(21)
		for _, pos := range []int{12, 15, 61} {
			if _, err := inj.FlipAt(w, pos, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	dbS, dbP := recoveryDB(t), recoveryDB(t)
	inject(dbS)
	inject(dbP)

	resS, repS, errS := RunWithRecovery(dbS, Continuous, ops.Scalar, sumPlan)
	if errS != nil {
		t.Fatal(errS)
	}
	pool := NewPoolMorsel(4, 8) // tiny morsels: 100 rows become 13 tasks
	defer pool.Close()
	resP, repP, errP := RunWithRecovery(dbP, Continuous, ops.Scalar, sumPlan,
		WithRecoveryRunOptions(WithPool(pool)))
	if errP != nil {
		t.Fatal(errP)
	}
	if !resS.Equal(resP) {
		t.Fatal("parallel recovered result diverges from serial")
	}
	if !repS.Equal(repP) {
		t.Fatalf("recovery reports diverge:\nserial:   %v\nparallel: %v", repS, repP)
	}
	if repS.Attempts != 2 || repS.RepairedCount() != 3 {
		t.Fatalf("unexpected serial report: %v", repS)
	}
}

// TestRecoveryNonHardenedModes: no value-granular detection, so exactly
// one attempt and no repair machinery.
func TestRecoveryNonHardenedModes(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	for _, m := range []Mode{Unprotected, DMR, TMR} {
		res, rep, err := RunWithRecovery(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rep.Attempts != 1 || rep.RepairedCount() != 0 {
			t.Fatalf("%v report: %v", m, rep)
		}
		if !res.Equal(ref) {
			t.Fatalf("%v result differs", m)
		}
	}
}

func TestRecoveryMaxRetriesZero(t *testing.T) {
	db := recoveryDB(t)
	db.Hardened("t").MustColumn("w").Corrupt(15, 1<<4)
	_, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan, WithMaxRetries(0))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("zero budget must be unrecoverable on first detection, got %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", rep.Attempts)
	}
}

func TestTableOf(t *testing.T) {
	tb1 := storage.NewTable("a")
	tb2 := storage.NewTable("b")
	for name, tb := range map[string]*storage.Table{"a": tb1, "b": tb2} {
		c, err := storage.NewColumn("only_"+name, storage.TinyInt)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := storage.NewColumn("shared", storage.TinyInt)
		if err != nil {
			t.Fatal(err)
		}
		c.Append(1)
		shared.Append(1)
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddColumn(shared); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDB([]*storage.Table{tb1, tb2}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if tab, ok := db.TableOf("only_a"); !ok || tab != "a" {
		t.Fatalf("only_a → %q, %v", tab, ok)
	}
	if _, ok := db.TableOf("shared"); ok {
		t.Fatal("ambiguous column must not attribute")
	}
	if _, ok := db.TableOf("missing"); ok {
		t.Fatal("unknown column must not attribute")
	}
}

func TestScrub(t *testing.T) {
	db := recoveryDB(t)
	db.Hardened("t").MustColumn("w").Corrupt(3, 1<<6)
	db.Hardened("t").MustColumn("w").Corrupt(90, 1<<2)
	db.Hardened("t").MustColumn("v").Corrupt(7, 1<<1)
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 2 || repaired["t.v"] != 1 {
		t.Fatalf("scrub counts %v", repaired)
	}
	for _, name := range []string{"v", "w"} {
		if bad, err := db.Hardened("t").MustColumn(name).CheckAll(); err != nil || len(bad) != 0 {
			t.Fatalf("%s not clean after scrub: %v, %v", name, bad, err)
		}
	}
	again, err := db.Scrub()
	if err != nil || len(again) != 0 {
		t.Fatalf("clean scrub: %v, %v", again, err)
	}
}

func TestQuarantineAPI(t *testing.T) {
	db := recoveryDB(t)
	if db.IsQuarantined("w") || len(db.QuarantinedColumns()) != 0 {
		t.Fatal("fresh DB must have an empty quarantine")
	}
	db.QuarantineColumn("w")
	db.QuarantineColumn("a")
	if !db.IsQuarantined("w") || !reflect.DeepEqual(db.QuarantinedColumns(), []string{"a", "w"}) {
		t.Fatalf("quarantine set: %v", db.QuarantinedColumns())
	}
	db.ClearQuarantine("a")
	if db.IsQuarantined("a") || !db.IsQuarantined("w") {
		t.Fatal("selective clear")
	}
	db.ClearQuarantine()
	if len(db.QuarantinedColumns()) != 0 {
		t.Fatal("full clear")
	}
}
