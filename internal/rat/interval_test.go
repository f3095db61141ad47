package rat

import (
	"math"
	"math/rand"
	"testing"
)

// randRat draws rationals across the small and big representations,
// including values far outside float range.
func randRat(rng *rand.Rand) Rat {
	switch rng.Intn(6) {
	case 0:
		return I(rng.Int63n(2000) - 1000)
	case 1:
		return New(rng.Int63n(1<<40)-(1<<39), 1+rng.Int63n(1<<20))
	case 2: // huge numerators: above float64 range after a few squarings
		r := New(rng.Int63n(1<<60)+1, 1+rng.Int63n(1<<10))
		return r.Mul(r).Mul(r).Mul(r).Mul(r)
	case 3: // tiny: below subnormal range
		r := New(1, rng.Int63n(1<<60)+2)
		return r.Mul(r).Mul(r).Mul(r).Mul(r)
	case 4:
		return FromFloat(rng.NormFloat64() * math.Ldexp(1, rng.Intn(120)-60))
	default:
		return New(rng.Int63n(2001)-1000, 1+rng.Int63n(997))
	}
}

// intervalRef is Interval as it was before the FMA-residual path: step
// outward from Float64 under exact comparisons (two big.Rats per step). It
// is the oracle the fast path must equal, endpoint for endpoint.
func intervalRef(r Rat) Interval {
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

// checkInterval fails unless r.Interval() is the reference enclosure and
// exactly encloses r.
func checkInterval(t *testing.T, r Rat) {
	t.Helper()
	iv := r.Interval()
	if ref := intervalRef(r); iv != ref {
		t.Fatalf("Interval(%s) = [%v, %v], reference loop [%v, %v]", r, iv.Lo, iv.Hi, ref.Lo, ref.Hi)
	}
	if !math.IsInf(iv.Lo, -1) && FromFloat(iv.Lo).Greater(r) {
		t.Fatalf("Interval(%s).Lo = %v > value", r, iv.Lo)
	}
	if !math.IsInf(iv.Hi, 1) && FromFloat(iv.Hi).Less(r) {
		t.Fatalf("Interval(%s).Hi = %v < value", r, iv.Hi)
	}
}

// TestIntervalMatchesReference pins the allocation-free path (and its 2^53
// precondition, from both sides) to the reference loop.
func TestIntervalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		checkInterval(t, randRat(rng))
		checkInterval(t, New(rng.Int63n(1<<54)-(1<<53), 1+rng.Int63n(1<<uint(1+rng.Intn(54)))))
	}
	for _, n := range edgeInts {
		for _, d := range edgeInts {
			if d != 0 {
				checkInterval(t, New(n, d))
			}
		}
	}
}

// TestIntervalAllocBudget: enclosing a rational whose numerator and
// denominator are exact floats — every cost, selectivity, period and bound
// the searches enclose — allocates nothing.
func TestIntervalAllocBudget(t *testing.T) {
	rs := []Rat{Zero, {}, New(23, 3), New(-9999, 10000), New(1<<53, 1<<53-1), New(-(1<<53 - 1), 1<<53)}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, r := range rs {
			sinkIv = r.Interval()
		}
	})
	if allocs != 0 {
		t.Fatalf("Interval allocated %.1f times per run, want 0", allocs)
	}
}

// TestIntervalEnclosure is the certification property: for every rational,
// the returned endpoints exactly enclose it.
func TestIntervalEnclosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		r := randRat(rng)
		iv := r.Interval()
		if !math.IsInf(iv.Lo, -1) && FromFloat(iv.Lo).Greater(r) {
			t.Fatalf("Interval(%s).Lo = %v > value", r, iv.Lo)
		}
		if !math.IsInf(iv.Hi, 1) && FromFloat(iv.Hi).Less(r) {
			t.Fatalf("Interval(%s).Hi = %v < value", r, iv.Hi)
		}
		if iv.Hi < iv.Lo {
			t.Fatalf("Interval(%s) inverted: [%v, %v]", r, iv.Lo, iv.Hi)
		}
	}
}

// TestIntervalExactFloats pins that a float-representable rational gets a
// tight (single-point or one-ulp) interval — the pre-filter's common case.
func TestIntervalExactFloats(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 3.75, -1024, 1e300, 5e-324} {
		iv := FromFloat(f).Interval()
		if iv.Lo > f || iv.Hi < f {
			t.Fatalf("Interval(FromFloat(%v)) = [%v, %v] misses the value", f, iv.Lo, iv.Hi)
		}
	}
}

// TestAddUpDown is the directed-rounding property: AddUp dominates and
// AddDown is dominated by the exact real sum, for finite operands.
func TestAddUpDown(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		a := rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
		b := rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
		exact := FromFloat(a).Add(FromFloat(b))
		up := AddUp(a, b)
		if !math.IsInf(up, 1) && FromFloat(up).Less(exact) {
			t.Fatalf("AddUp(%v, %v) = %v < exact sum %s", a, b, up, exact)
		}
		down := AddDown(a, b)
		if !math.IsInf(down, -1) && FromFloat(down).Greater(exact) {
			t.Fatalf("AddDown(%v, %v) = %v > exact sum %s", a, b, down, exact)
		}
	}
	// Overflow corners: the directed results must still dominate.
	if AddUp(math.MaxFloat64, math.MaxFloat64) != math.Inf(1) {
		t.Fatal("AddUp must saturate to +Inf on overflow")
	}
	if got := AddUp(-math.MaxFloat64, -math.MaxFloat64); FromFloat(got).Less(FromFloat(-math.MaxFloat64).Add(FromFloat(-math.MaxFloat64))) {
		t.Fatalf("AddUp overflow-down result %v below the exact sum", got)
	}
}

// TestMulUpDown is the same directed-rounding property for the products
// the weight reassembly uses (token count × λ endpoint).
func TestMulUpDown(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		a := rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
		b := rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
		exact := FromFloat(a).Mul(FromFloat(b))
		up := MulUp(a, b)
		if !math.IsInf(up, 1) && FromFloat(up).Less(exact) {
			t.Fatalf("MulUp(%v, %v) = %v < exact product %s", a, b, up, exact)
		}
		down := MulDown(a, b)
		if !math.IsInf(down, -1) && FromFloat(down).Greater(exact) {
			t.Fatalf("MulDown(%v, %v) = %v > exact product %s", a, b, down, exact)
		}
		if up < down {
			t.Fatalf("MulUp(%v, %v) = %v < MulDown = %v", a, b, up, down)
		}
	}
	// Zero and overflow corners.
	if MulUp(0, 1e300) < 0 || MulDown(0, 1e300) > 0 {
		t.Fatal("directed products of an exact zero must bracket 0")
	}
	if MulUp(math.MaxFloat64, 2) != math.Inf(1) {
		t.Fatal("MulUp must saturate to +Inf on overflow")
	}
}
