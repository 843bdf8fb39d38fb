package exec

import (
	"sort"
	"sync/atomic"
)

// Per-column access accounting. Every base-column resolution on the
// primary replica (Query.Col) and every operator row-touch (via
// ops.Opts.Access) increments the column's counter. The adaptive
// controller (internal/adapt) reads these counters as its hotness
// signal: hot columns are worth the storage overhead of a stronger code,
// cold clean columns can be demoted to a cheap residue sidecar.
//
// Each base column owns one atomic counter, resolved once at NewDB, so
// the per-operator hook is a map lookup plus an atomic add: no key is
// built and no lock is taken. Counters belong to the (table, column)
// name, not to a *storage.Column, so a RehardenColumn swap keeps the
// column's counter and its counts.

// initAccessCounters creates one counter per base column and binds the
// operator hook.
func (db *DB) initAccessCounters() {
	db.access = make(map[string]map[string]*atomic.Uint64, len(db.plain))
	db.accessByName = make(map[string]*atomic.Uint64, len(db.colTable))
	for name, t := range db.plain {
		cols := make(map[string]*atomic.Uint64, len(t.Columns()))
		for _, c := range t.Columns() {
			ctr := new(atomic.Uint64)
			cols[c.Name()] = ctr
			if table, ok := db.TableOf(c.Name()); ok && table == name {
				db.accessByName[c.Name()] = ctr
			}
		}
		db.access[name] = cols
	}
	db.noteByName = db.noteAccessByName
}

// noteAccess records rows touched on table.column. Zero or negative row
// counts are dropped so error paths don't pollute the signal.
func (db *DB) noteAccess(table, column string, rows int) {
	if rows <= 0 {
		return
	}
	if ctr := db.access[table][column]; ctr != nil {
		ctr.Add(uint64(rows))
	}
}

// noteAccessByName records the access on the base column of that bare
// name. Unknown names (intermediate vectors, join sides already counted
// at Col) and names shared by several tables are ignored.
func (db *DB) noteAccessByName(column string, rows int) {
	if rows <= 0 {
		return
	}
	if ctr := db.accessByName[column]; ctr != nil {
		ctr.Add(uint64(rows))
	}
}

// snapshotAccess returns the non-zero counters keyed "table.column",
// zeroing them on the way when reset is set.
func (db *DB) snapshotAccess(reset bool) map[string]uint64 {
	out := make(map[string]uint64)
	for table, cols := range db.access {
		for column, ctr := range cols {
			var n uint64
			if reset {
				n = ctr.Swap(0)
			} else {
				n = ctr.Load()
			}
			if n > 0 {
				out[table+"."+column] = n
			}
		}
	}
	return out
}

// AccessCounts returns a snapshot of the per-column access counters,
// keyed "table.column". Columns not touched since the last reset are
// absent.
func (db *DB) AccessCounts() map[string]uint64 { return db.snapshotAccess(false) }

// ResetAccessCounts zeroes the counters and returns the counts they
// held. The adaptive controller calls this once per tick so each tick
// sees the traffic of its own window; a row touched during the reset
// lands in exactly one of the two windows.
func (db *DB) ResetAccessCounts() map[string]uint64 { return db.snapshotAccess(true) }

// HotColumns returns the access-counter keys sorted by descending count
// (ties broken by name) - a convenience for status endpoints.
func (db *DB) HotColumns() []string {
	counts := db.AccessCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
