package rat

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEq(t *testing.T, got Rat, want string) {
	t.Helper()
	w := MustParse(want)
	if !got.Equal(w) {
		t.Fatalf("got %s, want %s", got, w)
	}
}

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{4, 8, "1/2"},
		{-4, 8, "-1/2"},
		{4, -8, "-1/2"},
		{-4, -8, "1/2"},
		{0, 5, "0"},
		{0, -5, "0"},
		{7, 1, "7"},
		{9999, 10000, "9999/10000"},
		{6, 3, "2"},
	}
	for _, c := range cases {
		got := New(c.n, c.d)
		mustEq(t, got, c.want)
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0)
}

func TestNewMinInt64(t *testing.T) {
	r := New(math.MinInt64, 2)
	want := new(big.Rat).SetFrac64(math.MinInt64, 2)
	if r.big().Cmp(want) != 0 {
		t.Fatalf("got %s want %s", r, want.RatString())
	}
	r2 := New(1, math.MinInt64)
	want2 := new(big.Rat).SetFrac64(1, math.MinInt64)
	if r2.big().Cmp(want2) != 0 {
		t.Fatalf("got %s want %s", r2, want2.RatString())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var z Rat
	if !z.IsZero() {
		t.Fatal("zero value should equal 0")
	}
	mustEq(t, z.Add(One), "1")
	mustEq(t, z.Mul(I(2)), "0")
	if z.String() != "0" {
		t.Fatalf("String() = %q", z.String())
	}
}

func TestBasicArithmetic(t *testing.T) {
	a := New(1, 3)
	b := New(1, 6)
	mustEq(t, a.Add(b), "1/2")
	mustEq(t, a.Sub(b), "1/6")
	mustEq(t, a.Mul(b), "1/18")
	mustEq(t, a.Div(b), "2")
	mustEq(t, a.Neg(), "-1/3")
	mustEq(t, a.Inv(), "3")
	mustEq(t, a.Neg().Abs(), "1/3")
	mustEq(t, a.MulInt(9), "3")
	mustEq(t, a.AddInt(1), "4/3")
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zero.Inv()
}

func TestPowInt(t *testing.T) {
	mustEq(t, I(2).PowInt(10), "1024")
	mustEq(t, I(2).PowInt(0), "1")
	mustEq(t, I(2).PowInt(-2), "1/4")
	mustEq(t, New(3, 2).PowInt(3), "27/8")
	mustEq(t, Zero.PowInt(5), "0")
	// Deep power requiring big representation.
	p := I(2).PowInt(100)
	want, _ := new(big.Rat).SetString("1267650600228229401496703205376")
	if p.big().Cmp(want) != 0 {
		t.Fatalf("2^100 = %s", p)
	}
	// And back down again: demotion must restore the fast path.
	back := p.Mul(I(2).PowInt(-99))
	mustEq(t, back, "2")
	if back.b != nil {
		t.Fatal("expected demotion to small representation")
	}
}

func TestCmpAndOrderingHelpers(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp inconsistent")
	}
	if !a.Less(b) || !a.Leq(b) || !a.Leq(a) || a.Greater(b) || !b.Greater(a) || !b.Geq(a) || !a.Geq(a) {
		t.Fatal("ordering helpers inconsistent")
	}
	if !a.Equal(New(2, 6)) {
		t.Fatal("Equal failed on unnormalized-equivalent input")
	}
	mustEq(t, Min(a, b), "1/3")
	mustEq(t, Max(a, b), "1/2")
	mustEq(t, MaxOf(b, a, One), "1")
}

func TestCmpNegatives(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"-1/3", "1/3", -1},
		{"-1/3", "-1/2", 1},
		{"-2", "-2", 0},
		{"0", "-1/1000000", 1},
	}
	for _, c := range cases {
		if got := MustParse(c.a).Cmp(MustParse(c.b)); got != c.want {
			t.Errorf("Cmp(%s,%s)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCmpLargeNoOverflow(t *testing.T) {
	// Cross products here overflow int64; Cmp must still be exact.
	a := New(math.MaxInt64-1, 3)
	b := New(math.MaxInt64-2, 3)
	if a.Cmp(b) != 1 {
		t.Fatal("large Cmp wrong")
	}
	c := New(math.MaxInt64, math.MaxInt64-1)
	d := New(math.MaxInt64-1, math.MaxInt64-2)
	// c = M/(M-1) vs d = (M-1)/(M-2): c < d since the sequence (k+1)/k decreases.
	if c.Cmp(d) != -1 {
		t.Fatal("large near-one Cmp wrong")
	}
}

func TestFloorCeilMod(t *testing.T) {
	cases := []struct {
		in, floor string
	}{
		{"7/2", "3"},
		{"-7/2", "-4"},
		{"3", "3"},
		{"-3", "-3"},
		{"0", "0"},
		{"1/1000", "0"},
		{"-1/1000", "-1"},
	}
	for _, c := range cases {
		mustEq(t, MustParse(c.in).Floor(), c.floor)
	}
	mustEq(t, MustParse("22/3").Mod(MustParse("7/3")), "1/3")
	mustEq(t, MustParse("-1/3").Mod(One), "2/3")
	mustEq(t, MustParse("14").Mod(MustParse("7")), "0")
	mustEq(t, MustParse("19").Mod(MustParse("23/3")), "11/3")
}

func TestModPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.Mod(Zero)
}

func TestModRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := New(rng.Int63n(2000)-1000, rng.Int63n(50)+1)
		m := New(rng.Int63n(100)+1, rng.Int63n(20)+1)
		got := r.Mod(m)
		if got.Sign() < 0 || !got.Less(m) {
			t.Fatalf("Mod(%s, %s) = %s out of [0, m)", r, m, got)
		}
		// r - got must be an integer multiple of m.
		q := r.Sub(got).Div(m)
		if !q.Floor().Equal(q) {
			t.Fatalf("Mod(%s, %s): quotient %s not integral", r, m, q)
		}
	}
}

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"42", "42"},
		{"-7", "-7"},
		{"23/3", "23/3"},
		{" 23 / 3 ", "23/3"},
		{"-9999/10000", "-9999/10000"},
		{"4/8", "1/2"},
		{"0.9999", "9999/10000"},
		{"-1.5", "-3/2"},
		{"0.25", "1/4"},
	}
	for _, c := range cases {
		r, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if r.String() != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, r.String(), c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1/0", "1/2/3", "1//2", "x/2", "2/x"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("not-a-rat")
}

func TestDecimal(t *testing.T) {
	if got := MustParse("23/3").Decimal(4); got != "7.6667" {
		t.Fatalf("Decimal = %q", got)
	}
	if got := MustParse("-1/2").Decimal(2); got != "-0.50" {
		t.Fatalf("Decimal = %q", got)
	}
}

func TestFloat64(t *testing.T) {
	if got := New(1, 2).Float64(); got != 0.5 {
		t.Fatalf("Float64 = %v", got)
	}
	big := I(2).PowInt(80)
	if got := big.Float64(); got != math.Exp2(80) {
		t.Fatalf("big Float64 = %v", got)
	}
}

func TestNumDen64(t *testing.T) {
	r := New(-3, 7)
	if n, ok := r.Num64(); !ok || n != -3 {
		t.Fatalf("Num64 = %d, %v", n, ok)
	}
	if d, ok := r.Den64(); !ok || d != 7 {
		t.Fatalf("Den64 = %d, %v", d, ok)
	}
	huge := I(2).PowInt(100)
	if _, ok := huge.Num64(); ok {
		t.Fatal("huge numerator should not fit in int64")
	}
	if d, ok := huge.Den64(); !ok || d != 1 {
		t.Fatalf("huge Den64 = %d, %v", d, ok)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Rat{Zero, One, New(-23, 3), MustParse("9999/10000"), I(2).PowInt(90)}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back Rat
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(v) {
			t.Fatalf("round trip: %s != %s", back, v)
		}
	}
	// Bare JSON numbers are accepted too.
	var r Rat
	if err := json.Unmarshal([]byte("42"), &r); err != nil {
		t.Fatal(err)
	}
	mustEq(t, r, "42")
	if err := json.Unmarshal([]byte("0.5"), &r); err != nil {
		t.Fatal(err)
	}
	mustEq(t, r, "1/2")
	if err := json.Unmarshal([]byte(`"oops"`), &r); err == nil {
		t.Fatal("expected error")
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	v := New(-23, 3)
	data, err := v.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Rat
	if err := back.UnmarshalText(data); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(v) {
		t.Fatalf("round trip: %s != %s", back, v)
	}
}

// --- property-based tests against the big.Rat reference implementation ---

// genRat produces a mix of small and overflow-provoking rationals.
func genRat(rng *rand.Rand) Rat {
	switch rng.Intn(4) {
	case 0: // tiny
		return New(rng.Int63n(21)-10, rng.Int63n(10)+1)
	case 1: // medium
		return New(rng.Int63n(2_000_001)-1_000_000, rng.Int63n(1_000_000)+1)
	case 2: // near-overflow
		return New(rng.Int63()-rng.Int63(), rng.Int63n(math.MaxInt64-1)+1)
	default: // already big
		return I(2).PowInt(int(rng.Int63n(40)) + 60).Add(New(rng.Int63n(100), rng.Int63n(100)+1))
	}
}

func refOf(r Rat) *big.Rat { return r.bigCopy() }

func TestQuickArithmeticMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		a, b := genRat(rng), genRat(rng)
		ra, rb := refOf(a), refOf(b)
		if got, want := a.Add(b).bigCopy(), new(big.Rat).Add(ra, rb); got.Cmp(want) != 0 {
			t.Fatalf("Add(%s,%s): got %s want %s", a, b, got.RatString(), want.RatString())
		}
		if got, want := a.Sub(b).bigCopy(), new(big.Rat).Sub(ra, rb); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%s,%s): got %s want %s", a, b, got.RatString(), want.RatString())
		}
		if got, want := a.Mul(b).bigCopy(), new(big.Rat).Mul(ra, rb); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%s,%s): got %s want %s", a, b, got.RatString(), want.RatString())
		}
		if !b.IsZero() {
			if got, want := a.Div(b).bigCopy(), new(big.Rat).Quo(ra, rb); got.Cmp(want) != 0 {
				t.Fatalf("Div(%s,%s): got %s want %s", a, b, got.RatString(), want.RatString())
			}
		}
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%s,%s): got %d want %d", a, b, got, want)
		}
	}
}

func TestQuickFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(7))}
	gen := func(vals []int64) (a, b, c Rat) {
		den := func(x int64) int64 { return x%1000 + 1001 } // positive
		a = New(vals[0]%100000, den(vals[1]))
		b = New(vals[2]%100000, den(vals[3]))
		c = New(vals[4]%100000, den(vals[5]))
		return
	}
	commut := func(v0, v1, v2, v3, v4, v5 int64) bool {
		a, b, _ := gen([]int64{v0, v1, v2, v3, v4, v5})
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(commut, cfg); err != nil {
		t.Error(err)
	}
	assoc := func(v0, v1, v2, v3, v4, v5 int64) bool {
		a, b, c := gen([]int64{v0, v1, v2, v3, v4, v5})
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c))) &&
			a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Error(err)
	}
	distrib := func(v0, v1, v2, v3, v4, v5 int64) bool {
		a, b, c := gen([]int64{v0, v1, v2, v3, v4, v5})
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Error(err)
	}
	inverses := func(v0, v1, v2, v3, v4, v5 int64) bool {
		a, _, _ := gen([]int64{v0, v1, v2, v3, v4, v5})
		if a.IsZero() {
			return a.Neg().IsZero()
		}
		return a.Add(a.Neg()).IsZero() && a.Mul(a.Inv()).Equal(One)
	}
	if err := quick.Check(inverses, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOrderingTotalAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		a, b := genRat(rng), genRat(rng)
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("antisymmetry violated for %s, %s", a, b)
		}
		// Cmp must agree with the sign of the difference.
		if a.Sub(b).Sign() != a.Cmp(b) {
			t.Fatalf("Cmp(%s,%s) inconsistent with Sub sign", a, b)
		}
	}
}

// checkRep fails unless r is in canonical form: a small Rat has den > 0,
// gcd(|num|, den) == 1 and never carries MinInt64 (its magnitude would
// overflow in the next operation); anything else is big, and a big Rat holds
// only values that do not fit the small form.
func checkRep(t *testing.T, what string, r Rat) {
	t.Helper()
	if r.b != nil {
		if n, d := r.b.Num(), r.b.Denom(); n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64 {
			t.Fatalf("%s: %s fits int64 but is held big", what, r.b.RatString())
		}
		return
	}
	n, d, _ := r.small()
	if d <= 0 || n == math.MinInt64 {
		t.Fatalf("%s: small rat %d/%d outside the representation", what, n, d)
	}
	if g := gcd64(absU64(n), uint64(d)); g != 1 {
		t.Fatalf("%s: unnormalized small rat %d/%d (gcd %d)", what, n, d, g)
	}
}

// edgeInts are the int64 operands around which the small representation
// ends: products and sums of these sit on either side of ±2^63.
var edgeInts = []int64{
	0, 1, -1, 2, -2, 3, 6, 1 << 31, -(1 << 31), 1<<31 + 1, 1 << 32, 1<<53 - 1, 1 << 53, 1<<53 + 1,
	1 << 62, -(1 << 62), 1<<62 + 1, math.MaxInt64, -math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 2,
}

func TestQuickNormalizationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		checkRep(t, "random", genRat(rng).Mul(genRat(rng)).Add(genRat(rng)))
	}
	// Operands at the int64 edges, every constructor and operation.
	var edges []Rat
	for _, n := range edgeInts {
		edges = append(edges, I(n))
		for _, d := range edgeInts {
			if d != 0 {
				edges = append(edges, New(n, d))
			}
		}
	}
	for _, a := range edges {
		checkRep(t, "New", a)
		checkRep(t, "Neg", a.Neg())
		checkRep(t, "Floor", a.Floor())
		for _, b := range edges {
			checkRep(t, "Add", a.Add(b))
			checkRep(t, "Sub", a.Sub(b))
			checkRep(t, "Mul", a.Mul(b))
			if !b.IsZero() {
				checkRep(t, "Div", a.Div(b))
			}
		}
	}
}

// TestMulMinInt64Product is the regression for a wrong sign: mul64 once
// accepted a product of exactly −2^63, so Mul handed out a small Rat whose
// numerator's magnitude overflowed in the next operation — this expression
// printed 4611686018427387904/-3 and compared positive.
func TestMulMinInt64Product(t *testing.T) {
	p := New(-1<<62, 1).Mul(New(2, 1))
	checkRep(t, "-2^62 * 2", p)
	r := p.Mul(New(1, 6))
	checkRep(t, "-2^63 / 6", r)
	mustEq(t, r, "-4611686018427387904/3")
	if r.Sign() != -1 || r.Cmp(Zero) != -1 {
		t.Fatalf("-2^63/6: Sign %d, Cmp(Zero) %d, want -1, -1", r.Sign(), r.Cmp(Zero))
	}
	checkRep(t, "-2^62 + -2^62", New(-1<<62, 1).Add(New(-1<<62, 1)))
	checkRep(t, "I(MinInt64)", I(math.MinInt64))
}

func TestMul64Edges(t *testing.T) {
	if _, ok := mul64(math.MinInt64, -1); ok {
		t.Fatal("MinInt64 * -1 must report overflow")
	}
	if _, ok := mul64(-1, math.MinInt64); ok {
		t.Fatal("-1 * MinInt64 must report overflow")
	}
	if v, ok := mul64(0, math.MinInt64); !ok || v != 0 {
		t.Fatal("0 * MinInt64 must be 0")
	}
	if v, ok := mul64(1<<31, 1<<31); !ok || v != 1<<62 {
		t.Fatal("2^31 * 2^31 should fit")
	}
	if _, ok := mul64(1<<32, 1<<32); ok {
		t.Fatal("2^32 * 2^32 must overflow")
	}
}

func TestAdd64Edges(t *testing.T) {
	if _, ok := add64(math.MaxInt64, 1); ok {
		t.Fatal("MaxInt64+1 must overflow")
	}
	if _, ok := add64(math.MinInt64, -1); ok {
		t.Fatal("MinInt64-1 must overflow")
	}
	if v, ok := add64(math.MaxInt64, math.MinInt64); !ok || v != -1 {
		t.Fatal("MaxInt64+MinInt64 should be -1")
	}
}

var (
	sinkRat Rat
	sinkInt int
)

// BenchmarkSmallOps times the int64 kernel on the operand shapes the plan
// searches produce (measured mix on plan-cold, DESIGN §2a): every case runs
// on fixed, bounded operands — nothing grows with b.N, nothing leaves the
// small representation — and must not allocate.
func BenchmarkSmallOps(b *testing.B) {
	i41, i7, third, sixth := I(41), I(7), New(1, 3), New(1, 6)
	sel, cost, f57, f512, f718 := New(9999, 10000), New(23, 3), New(5, 7), New(5, 12), New(7, 18)
	wide5, wide7 := New(math.MaxInt64-1, 5), New(math.MaxInt64-2, 7)
	for _, bc := range []struct {
		name string
		op   func()
	}{
		{"Add/zero", func() { sinkRat = Zero.Add(cost) }},
		{"Add/int+int", func() { sinkRat = i41.Add(i7) }},
		{"Add/equal-den", func() { sinkRat = third.Add(third) }},
		{"Add/int+frac", func() { sinkRat = i41.Add(cost) }},
		{"Add/nested-den", func() { sinkRat = third.Add(sixth) }},
		{"Add/coprime-den", func() { sinkRat = cost.Add(f57) }},
		{"Add/general", func() { sinkRat = f512.Add(f718) }},
		{"Mul/int*int", func() { sinkRat = i41.Mul(i7) }},
		{"Mul/by-one", func() { sinkRat = sel.Mul(One) }},
		{"Mul/frac*frac", func() { sinkRat = sel.Mul(cost) }},
		{"Cmp/equal-den", func() { sinkInt = third.Cmp(cost) }},
		{"Cmp/unequal-den", func() { sinkInt = sel.Cmp(cost) }},
		{"Cmp/128-bit", func() { sinkInt = wide5.Cmp(wide7) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if allocs := testing.AllocsPerRun(100, bc.op); allocs != 0 {
				b.Fatalf("%s allocated %.1f times per operation, want 0", bc.name, allocs)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}

// TestCmpFastPathAllocFree guards the int64 comparison fast path: the
// order-search bound pruning sits on Cmp (via Less/Greater/Min/Max in the
// incumbent tests and the longest-path relaxations), so a regression that
// makes small-small comparisons allocate — e.g. falling back to big() —
// would tax every pruned prefix. AllocsPerRun pins it to zero, including
// the 128-bit cross-multiplication overflow path and the zero value.
func TestCmpFastPathAllocFree(t *testing.T) {
	pairs := [][2]Rat{
		{New(23, 3), New(7, 1)},
		{New(math.MaxInt64-1, 3), New(math.MaxInt64-2, 3)}, // equal denominators: numerators decide
		{New(math.MaxInt64-1, 5), New(math.MaxInt64-2, 7)}, // 128-bit cross products
		{New(-9999, 10000), New(9999, 10000)},
		{Zero, Rat{}}, // the uninitialized zero value normalizes without allocating
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range pairs {
			_ = p[0].Cmp(p[1])
			_ = p[0].Less(p[1])
			_ = Max(p[0], p[1])
			_ = Min(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("small-small comparisons allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCmpMixed covers the promotion path (one small, one big
// operand), which legitimately allocates the temporary big.Rat — the
// guard above only pins the small-small fast path.
func BenchmarkCmpMixed(b *testing.B) {
	x := I(2).PowInt(100)
	y := New(1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

func BenchmarkAddBig(b *testing.B) {
	x := I(2).PowInt(100)
	y := New(1, 3)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}
