package rat

// Certified float intervals: the bridge between exact rational arithmetic
// and the float pre-filters on the search hot path. An Interval encloses an
// exact Rat between two float64 endpoints whose correctness is certified by
// exact comparison (FromFloat is exact — floats are binary rationals), so a
// pre-filter that separates two quantities through intervals proves the
// exact comparison without performing it. When the intervals overlap the
// caller must fall back to exact arithmetic; nothing here is ever allowed
// to decide a comparison the endpoints cannot certify.

import "math"

// Interval is a closed float64 enclosure of an exact rational: Lo ≤ r ≤ Hi,
// certified at construction. Non-finite rationals-out-of-range degrade to
// the whole extended real line, which certifies nothing and forces the
// exact fallback.
type Interval struct {
	Lo, Hi float64
}

// Interval returns the tightest certified enclosure of r. When numerator and
// denominator are exact in float64 (magnitude ≤ 2^53) the quotient f is
// correctly rounded and the residual n − f·d, one FMA, is exact, so its sign
// says on which side of r the quotient fell — no exact comparison and no
// allocation. Everything else steps outward from Float64 under exact
// comparisons, at most one step in practice, never trusted.
func (r Rat) Interval() Interval {
	const exact = 1 << 53
	if n, d, ok := r.small(); ok && -exact <= n && n <= exact && d <= exact {
		fn, fd := float64(n), float64(d)
		f := fn / fd
		switch res := math.FMA(-f, fd, fn); {
		case res > 0:
			return Interval{f, math.Nextafter(f, math.Inf(1))}
		case res < 0:
			return Interval{math.Nextafter(f, math.Inf(-1)), f}
		}
		return Interval{f, f}
	}
	f := r.Float64()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Interval{math.Inf(-1), math.Inf(1)}
	}
	lo := f
	for !math.IsInf(lo, -1) && FromFloat(lo).Greater(r) {
		lo = math.Nextafter(lo, math.Inf(-1))
	}
	hi := f
	for !math.IsInf(hi, 1) && FromFloat(hi).Less(r) {
		hi = math.Nextafter(hi, math.Inf(1))
	}
	return Interval{lo, hi}
}

// AddUp returns a float64 guaranteed ≥ the exact real sum a+b. The rounded
// sum is within one ulp of the exact value, so one upward step certifies
// the direction; +Inf stays +Inf and an overflow to -Inf steps back to
// -MaxFloat64, which still dominates any sum that rounded there.
func AddUp(a, b float64) float64 {
	return math.Nextafter(a+b, math.Inf(1))
}

// AddDown returns a float64 guaranteed ≤ the exact real sum a+b.
func AddDown(a, b float64) float64 {
	return math.Nextafter(a+b, math.Inf(-1))
}

// MulUp returns a float64 guaranteed ≥ the exact real product a·b, and
// MulDown one guaranteed ≤ it — same one-ulp directed step as AddUp/AddDown
// (the rounded product is within half an ulp of the exact value).
func MulUp(a, b float64) float64 {
	return math.Nextafter(a*b, math.Inf(1))
}

func MulDown(a, b float64) float64 {
	return math.Nextafter(a*b, math.Inf(-1))
}
