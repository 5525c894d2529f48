package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strings"

	"hana/internal/value"
)

// exactDigest hashes a result byte for byte, row order included: the
// engine promises identical bytes at any worker width, shard count and
// execution path, so a serial or pinned-local run on the same engine is an
// oracle for the parallel or distributed one.
func exactDigest(rows []value.Row) string {
	h := sha256.New()
	var buf []byte
	var n [8]byte
	for _, r := range rows {
		buf = value.AppendRow(buf[:0], r)
		l := len(buf)
		for i := range n {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// looseTolerance is the relative difference two DOUBLEs may have and still
// match: another engine (Hive through SDA against an all-local engine) or
// one engine after rows moved between hot and cold partitions may sum in
// another order, which moves only the last bits. Rounding both sides to a
// number of digits would not do: a sum of cents that is exactly on a
// rounding boundary rounds up on one side and down on the other.
const looseTolerance = 1e-9

// looseKey orders rows by their non-DOUBLE values, then their DOUBLEs.
func looseKey(r value.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.K != value.KindDouble {
			b.WriteString(v.String())
		}
		b.WriteByte('|')
	}
	return b.String()
}

// sortLoose returns the rows in looseKey order, DOUBLEs breaking ties.
func sortLoose(rows []value.Row) []value.Row {
	type keyed struct {
		key string
		row value.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{looseKey(r), r}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		a, b := ks[i].row, ks[j].row
		for c := range a {
			if a[c].K == value.KindDouble && c < len(b) && a[c].Float() != b[c].Float() {
				return a[c].Float() < b[c].Float()
			}
		}
		return false
	})
	out := make([]value.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

// looseMatch compares a result with sortLoose-ordered expected rows as an
// unordered multiset, DOUBLEs within looseTolerance: the oracle for
// results whose row order (no ORDER BY) and summation order are not part
// of the contract.
func looseMatch(got, want []value.Row) bool {
	if len(got) != len(want) {
		return false
	}
	got = sortLoose(got)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for c, g := range got[i] {
			w := want[i][c]
			if g.K == value.KindDouble && w.K == value.KindDouble {
				if d := math.Abs(g.Float() - w.Float()); d > looseTolerance*math.Max(math.Abs(g.Float()), math.Abs(w.Float())) && d > 1e-12 {
					return false
				}
				continue
			}
			if g.K != w.K || g.String() != w.String() {
				return false
			}
		}
	}
	return true
}
