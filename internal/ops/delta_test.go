package ops_test

import (
	"fmt"
	"reflect"
	"testing"

	"ahead/internal/an"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// deltaMorsel is the morsel size of the pooled Δ runs below: small, so a
// hundred-row column spans several morsels plus a short tail.
const deltaMorsel = 16

// deltaCase is one (code width, decoded width) pair of the Δ kernel.
type deltaCase struct {
	name   string
	column func(n int) (*storage.Column, error)
	code   *an.Code // nil: residue-hardened with 8 check bits
	src    int      // expected hardened width in bytes
	dst    int      // expected decoded width in bytes
}

func intCol(kind storage.Kind, mod uint64) func(n int) (*storage.Column, error) {
	return func(n int) (*storage.Column, error) {
		c, err := storage.NewColumn("c", kind)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			c.Append(uint64(i*7919) % mod)
		}
		return c, nil
	}
}

func strCol(distinct int) func(n int) (*storage.Column, error) {
	return func(n int) (*storage.Column, error) {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("s%04d", i*31%distinct)
		}
		return storage.NewStrColumn("c", vals), nil
	}
}

var deltaCases = []deltaCase{
	{"str-1to1", strCol(5), an.MustNew(5, 3), 1, 1},
	{"tiny-2to1", intCol(storage.TinyInt, 256), an.MustNew(233, 8), 2, 1},
	{"tiny-4to1", intCol(storage.TinyInt, 256), an.MustNew(32417, 8), 4, 1},
	{"short-4to2", intCol(storage.ShortInt, 1<<16), an.MustNew(233, 16), 4, 2},
	{"str-4to2", strCol(600), an.MustNew(233, 10), 4, 2},
	{"tiny-8to1", intCol(storage.TinyInt, 256), an.MustNew(1<<40+1, 8), 8, 1},
	{"short-8to2", intCol(storage.ShortInt, 1<<16), an.MustNew(1<<30+3, 16), 8, 2},
	{"int-8to4", intCol(storage.Int, 1<<32), an.MustNew(32417, 32), 8, 4},
	{"big-8to8", intCol(storage.BigInt, 1<<48), an.MustNew(32417, 48), 8, 8},
	{"residue-int", intCol(storage.Int, 1<<32), nil, 4, 4},
}

// deltaFlips are the rows the equivalence tests corrupt: the first and
// last row of morsels, and rows inside and at the end of the tail
// morsel of a 101-row column.
var deltaFlips = []int{0, 15, 16, 31, 47, 48, 96, 98, 100}

func hardenCase(t *testing.T, tc deltaCase, n int) *storage.Column {
	t.Helper()
	plain, err := tc.column(n)
	if err != nil {
		t.Fatal(err)
	}
	var h *storage.Column
	if tc.code == nil {
		h, err = plain.HardenResidue(8)
	} else {
		h, err = plain.Harden(tc.code)
	}
	if err != nil {
		t.Fatal(err)
	}
	if h.Width() != tc.src {
		t.Fatalf("hardened width %d, want %d", h.Width(), tc.src)
	}
	return h
}

// physical returns the column's data array, whichever width it uses.
func physical(c *storage.Column) any {
	switch c.Width() {
	case 1:
		return c.U8()
	case 2:
		return c.U16()
	case 4:
		return c.U32()
	default:
		return c.U64()
	}
}

// TestDeltaSerialMatchesPooled pins the Δ equivalence invariant on every
// width pair: the serial pass and the morsel-parallel pass return
// bit-identical softened columns and identical error-log entries in
// identical order, and both equal the value-at-a-time reference (each
// code word decoded on its own, every planted flip logged once, in row
// order).
func TestDeltaSerialMatchesPooled(t *testing.T) {
	const n = 6*deltaMorsel + 5
	pool := exec.NewPoolMorsel(4, deltaMorsel)
	defer pool.Close()
	for _, tc := range deltaCases {
		t.Run(tc.name, func(t *testing.T) {
			h := hardenCase(t, tc, n)
			for _, pos := range deltaFlips {
				h.Corrupt(pos, 1<<1)
			}

			serialLog := ops.NewErrorLog()
			serial, err := ops.Delta(h, serialLog)
			if err != nil {
				t.Fatal(err)
			}
			pooledLog := ops.NewErrorLog()
			pooled, err := ops.DeltaOpts(h, &ops.Opts{Par: pool, Log: pooledLog})
			if err != nil {
				t.Fatal(err)
			}

			if !serialLog.Equal(pooledLog) {
				t.Fatalf("error logs differ:\nserial %v\npooled %v", serialLog.Entries(), pooledLog.Entries())
			}
			got, err := serialLog.Positions(h.Name())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]uint64, len(deltaFlips))
			for i, p := range deltaFlips {
				want[i] = uint64(p)
			}
			if !reflect.DeepEqual(got, want) || serialLog.Count() != len(deltaFlips) {
				t.Fatalf("logged %v (%d entries), want %v once each", got, serialLog.Count(), want)
			}
			for i, e := range serialLog.Entries() {
				if e.HardenedPos != ops.PosCode.Encode(want[i]) {
					t.Fatalf("entry %d out of row order: %v", i, serialLog.Entries())
				}
			}

			for _, out := range []*storage.Column{serial, pooled} {
				if out.IsHardened() || out.Width() != tc.dst || out.Len() != n || out.Kind() != serial.Kind() {
					t.Fatalf("output width %d kind %v len %d hardened %v, want width %d len %d plain",
						out.Width(), out.Kind(), out.Len(), out.IsHardened(), tc.dst, n)
				}
			}
			if !reflect.DeepEqual(physical(serial), physical(pooled)) {
				t.Fatal("serial and pooled Δ decode different columns")
			}
			dstMask := uint64(1)<<(8*tc.dst) - 1
			if tc.dst == 8 {
				dstMask = ^uint64(0)
			}
			for i := 0; i < n; i++ {
				ref := h.Get(i)
				if tc.code != nil {
					ref = tc.code.Decode(ref) & dstMask
				}
				if serial.Get(i) != ref {
					t.Fatalf("row %d decodes to %d, want %d", i, serial.Get(i), ref)
				}
			}
			if tc.code != nil {
				soft, err := h.Soften()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(physical(soft), physical(serial)) {
					t.Fatal("Soften and Δ decode different columns")
				}
			}
		})
	}
}

// TestDeltaPooledLargeColumn runs the equivalence on the default morsel
// size over a column spanning several morsels, with flips on morsel
// boundaries and in the last row.
func TestDeltaPooledLargeColumn(t *testing.T) {
	const n = 5*exec.DefaultMorselSize + 123
	pool := exec.NewPool(2)
	defer pool.Close()
	h := hardenCase(t, deltaCases[1], n)
	flips := []int{0, exec.DefaultMorselSize - 1, exec.DefaultMorselSize, 3*exec.DefaultMorselSize + 7, n - 1}
	for _, p := range flips {
		h.Corrupt(p, 1<<3)
	}
	serialLog, pooledLog := ops.NewErrorLog(), ops.NewErrorLog()
	serial, err := ops.Delta(h, serialLog)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := ops.DeltaOpts(h, &ops.Opts{Par: pool, Log: pooledLog})
	if err != nil {
		t.Fatal(err)
	}
	if !serialLog.Equal(pooledLog) || serialLog.Count() != len(flips) {
		t.Fatalf("logs: serial %d entries, pooled %d, want %d identical", serialLog.Count(), pooledLog.Count(), len(flips))
	}
	if !reflect.DeepEqual(physical(serial), physical(pooled)) {
		t.Fatal("serial and pooled Δ decode different columns")
	}
}

// BenchmarkDelta times the fused Δ over a 1M-row hardened tinyint
// column, serially and on a GOMAXPROCS-worker pool.
func BenchmarkDelta(b *testing.B) {
	const n = 1 << 20
	plain, err := intCol(storage.TinyInt, 256)(n)
	if err != nil {
		b.Fatal(err)
	}
	h, err := plain.Harden(an.MustNew(233, 8))
	if err != nil {
		b.Fatal(err)
	}
	pool := exec.NewPool(0)
	defer pool.Close()
	for _, bc := range []struct {
		name string
		opts *ops.Opts
	}{
		{"serial", &ops.Opts{}},
		{"pool", &ops.Opts{Par: pool}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(n * h.Width()))
			for i := 0; i < b.N; i++ {
				if _, err := ops.DeltaOpts(h, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
