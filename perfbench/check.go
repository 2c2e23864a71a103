package main

import (
	"fmt"
	"math"

	"repro/internal/sqltypes"
)

// fpCols bounds the per-column float accumulators of a fingerprint; wider
// results fold their columns modulo fpCols.
const fpCols = 8

// fingerprint summarizes a result relation as a multiset, cheaply enough to
// take after every query without disturbing the measurement:
//
//   - rows and keyHash (the wrapping sum of per-row hashes over every
//     non-float cell) must match exactly;
//   - float cells, whose last bits legitimately depend on summation order,
//     are compared through per-column sums — plain and weighted by a
//     function of the row's exact cells, so a float moved to the wrong row
//     is caught — within a relative tolerance.
type fingerprint struct {
	rows    int
	cols    int
	keyHash uint64
	fsum    [fpCols]float64
	fwsum   [fpCols]float64
	fscale  [fpCols]float64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// floatTol is the relative tolerance on float sums, scaled by the sum of
	// magnitudes: far above reordering error, far below any real mismatch.
	floatTol = 1e-9
)

func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fingerprintOf(rel *sqltypes.Relation) fingerprint {
	var fp fingerprint
	if rel == nil {
		return fp
	}
	fp.rows = len(rel.Rows)
	if rel.Schema != nil {
		fp.cols = rel.Schema.Len()
	}
	for _, row := range rel.Rows {
		h := uint64(fnvOffset)
		for j, v := range row {
			h = mix(h, uint64(v.Kind())+uint64(j)<<8)
			switch v.Kind() {
			case sqltypes.KindInt, sqltypes.KindBool:
				h = mix(h, uint64(v.Int()))
			case sqltypes.KindString:
				s := v.Str()
				for i := 0; i < len(s); i++ {
					h ^= uint64(s[i])
					h *= fnvPrime
				}
			}
		}
		w := 1 + float64(h>>53)/float64(1<<11)
		for j, v := range row {
			if v.Kind() != sqltypes.KindFloat {
				continue
			}
			f := v.Float()
			c := j % fpCols
			fp.fsum[c] += f
			fp.fwsum[c] += f * w
			fp.fscale[c] += math.Abs(f) * w
		}
		fp.keyHash += h
	}
	return fp
}

// diff describes the first way got differs from want, or "" when they match.
func (want fingerprint) diff(got fingerprint) string {
	switch {
	case got.rows != want.rows:
		return fmt.Sprintf("%d rows, want %d", got.rows, want.rows)
	case got.cols != want.cols:
		return fmt.Sprintf("%d columns, want %d", got.cols, want.cols)
	case got.keyHash != want.keyHash:
		return "exact cells differ"
	}
	for c := 0; c < fpCols; c++ {
		tol := floatTol * (1 + max(want.fscale[c], got.fscale[c]))
		if math.Abs(got.fsum[c]-want.fsum[c]) > tol || math.Abs(got.fwsum[c]-want.fwsum[c]) > tol {
			return fmt.Sprintf("float column %d: sum %.10g, want %.10g", c, got.fsum[c], want.fsum[c])
		}
	}
	return ""
}
