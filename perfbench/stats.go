package main

import (
	"math/rand"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// uniqueInts draws integers uniformly from [lo, hi) without repeating one,
// so parameterized submissions never collide in the result cache.
type uniqueInts struct {
	rnd    *rand.Rand
	lo, hi int64
	seen   map[int64]bool
}

func newUniqueInts(rnd *rand.Rand, lo, hi int64) *uniqueInts {
	return &uniqueInts{rnd: rnd, lo: lo, hi: hi, seen: map[int64]bool{}}
}

// next returns a value not returned before. It panics when the range is
// exhausted, which workload sizing rules out.
func (u *uniqueInts) next() int64 {
	if int64(len(u.seen)) >= u.hi-u.lo {
		panic("perfbench: parameter range exhausted")
	}
	for {
		v := u.lo + u.rnd.Int63n(u.hi-u.lo)
		if !u.seen[v] {
			u.seen[v] = true
			return v
		}
	}
}
