// Package rat implements immutable exact rational arithmetic with an int64
// fast path and transparent promotion to math/big on overflow.
//
// The scheduling theory reproduced by this repository depends on exact
// arithmetic: optimal periods are rationals such as 23/3, selectivities are
// values such as 9999/10000, and the NP-hardness gadgets use constants with
// denominators of the form 2^n. Floating point would silently break validator
// decisions (interval disjointness, bandwidth capacity), so every quantity on
// the correctness path is a Rat.
//
// A Rat is a value type: all operations return new values and never mutate
// their operands, so Rats may be freely copied, shared across goroutines and
// embedded in other structs. The zero value is the number 0 and is ready to
// use.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an immutable arbitrary-precision rational number.
//
// Internally a Rat is either "small" (numerator and denominator fit in
// int64; b is nil) or "big" (b holds a normalized big.Rat and the small
// fields are unused). Small Rats keep den > 0 and gcd(|num|, den) == 1.
// Operations stay on the int64 fast path whenever the result fits and
// promote to big.Rat otherwise; big results that fit back in int64 are
// demoted so chains of operations recover the fast path.
type Rat struct {
	num int64
	den int64 // 0 means "zero value, interpret as 0/1"; otherwise > 0
	b   *big.Rat
}

// Common constants. They are values, not pointers, so they cannot be
// corrupted by callers.
var (
	// Zero is the rational 0.
	Zero = Rat{num: 0, den: 1}
	// One is the rational 1.
	One = Rat{num: 1, den: 1}
)

// New returns the rational num/den in lowest terms. It panics if den == 0;
// a zero denominator is always a programming error in this code base.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		// Negation of MinInt64 overflows; take the slow path.
		return fromBigRat(new(big.Rat).SetFrac64(num, den))
	}
	if den < 0 {
		num, den = -num, -den
	}
	if g := int64(gcd64(absU64(num), uint64(den))); g > 1 {
		num /= g
		den /= g
	}
	return Rat{num: num, den: den}
}

// I returns the rational n/1.
func I(n int64) Rat {
	if n == math.MinInt64 {
		return New(n, 1)
	}
	return Rat{num: n, den: 1}
}

// fromBigRat normalizes ownership of br (the caller must not retain it) and
// demotes to the small representation when possible.
func fromBigRat(br *big.Rat) Rat {
	if br.Num().IsInt64() && br.Denom().IsInt64() {
		n, d := br.Num().Int64(), br.Denom().Int64()
		if n != math.MinInt64 && d != math.MinInt64 {
			// big.Rat is already normalized with positive denominator.
			return Rat{num: n, den: d}
		}
	}
	return Rat{b: br}
}

// big returns the value as a big.Rat. The result is freshly allocated for
// small Rats and MUST NOT be mutated when r is big; use bigCopy for a
// mutable copy.
func (r Rat) big() *big.Rat {
	if r.b != nil {
		return r.b
	}
	d := r.den
	if d == 0 {
		d = 1
	}
	return new(big.Rat).SetFrac64(r.num, d)
}

// bigCopy returns a freshly allocated big.Rat equal to r.
func (r Rat) bigCopy() *big.Rat {
	if r.b != nil {
		return new(big.Rat).Set(r.b)
	}
	return r.big()
}

// Big returns a freshly allocated big.Rat equal to r; the caller owns it.
func (r Rat) Big() *big.Rat { return r.bigCopy() }

// small reports whether r uses the int64 representation, normalizing the
// zero value's denominator.
func (r Rat) small() (n, d int64, ok bool) {
	if r.b != nil {
		return 0, 0, false
	}
	d = r.den
	if d == 0 {
		d = 1
	}
	return r.num, d, true
}

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	rn, rd, rok := r.small()
	on, od, ook := o.small()
	if rok && ook {
		switch {
		case rn == 0:
			return Rat{num: on, den: od}
		case on == 0:
			return Rat{num: rn, den: rd}
		case rd == od:
			if s, ok := add64(rn, on); ok {
				if rd == 1 {
					return Rat{num: s, den: 1}
				}
				return New(s, rd)
			}
		default:
			if n, d, ok := addFrac(rn, rd, on, od); ok {
				return Rat{num: n, den: d}
			}
		}
	}
	return fromBigRat(new(big.Rat).Add(r.big(), o.big()))
}

// addFrac adds the reduced fractions rn/rd and on/od, rd != od, in int64
// (Knuth 4.5.1): with g = gcd(rd, od) and t = rn·(od/g) + on·(rd/g), only
// gcd(t, g) can still divide numerator and denominator — nothing at all when
// g == 1 (an integer plus a fraction, coprime denominators). t is never 0:
// opposite reduced fractions have equal denominators.
func addFrac(rn, rd, on, od int64) (num, den int64, ok bool) {
	g := int64(gcd64(uint64(rd), uint64(od)))
	rdg, odg := rd, od
	if g > 1 {
		rdg, odg = quo(rd, g), quo(od, g)
	}
	x, ok1 := mul64(rn, odg)
	y, ok2 := mul64(on, rdg)
	t, ok3 := add64(x, y)
	if !(ok1 && ok2 && ok3) {
		return 0, 0, false
	}
	if g > 1 {
		if g2 := int64(gcd64(absU64(t), uint64(g))); g2 > 1 {
			t, od = quo(t, g2), quo(od, g2)
		}
	}
	den, ok = mul64(rdg, od)
	return t, den, ok
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat { return r.Add(o.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat {
	if n, d, ok := r.small(); ok {
		return Rat{num: -n, den: d}
	}
	return fromBigRat(new(big.Rat).Neg(r.big()))
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	rn, rd, rok := r.small()
	on, od, ook := o.small()
	if rok && ook {
		if rd == 1 && od == 1 {
			if n, ok := mul64(rn, on); ok {
				return Rat{num: n, den: 1}
			}
		} else {
			// Cross-reduce first: the products are then in lowest terms.
			if g := int64(gcd64(absU64(rn), uint64(od))); g > 1 {
				rn, od = quo(rn, g), quo(od, g)
			}
			if g := int64(gcd64(absU64(on), uint64(rd))); g > 1 {
				on, rd = quo(on, g), quo(rd, g)
			}
			if n, ok := mul64(rn, on); ok {
				if d, ok := mul64(rd, od); ok {
					return Rat{num: n, den: d}
				}
			}
		}
	}
	return fromBigRat(new(big.Rat).Mul(r.big(), o.big()))
}

// Div returns r / o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	if o.IsZero() {
		panic("rat: division by zero")
	}
	return r.Mul(o.Inv())
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat {
	if r.IsZero() {
		panic("rat: inverse of zero")
	}
	if n, d, ok := r.small(); ok {
		if n < 0 {
			return Rat{num: -d, den: -n}
		}
		return Rat{num: d, den: n}
	}
	return fromBigRat(new(big.Rat).Inv(r.big()))
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.Sign() < 0 {
		return r.Neg()
	}
	return r
}

// MulInt returns r * k.
func (r Rat) MulInt(k int64) Rat { return r.Mul(I(k)) }

// AddInt returns r + k.
func (r Rat) AddInt(k int64) Rat { return r.Add(I(k)) }

// PowInt returns r^k for any integer k (negative exponents invert r and
// panic if r is zero).
func (r Rat) PowInt(k int) Rat {
	if k < 0 {
		return r.Inv().PowInt(-k)
	}
	result := One
	base := r
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	if r.b != nil {
		return r.b.Sign()
	}
	return cmpInt(r.num, 0)
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Sign() == 0 }

// Cmp compares r and o, returning -1 if r < o, 0 if r == o, +1 if r > o.
func (r Rat) Cmp(o Rat) int {
	rn, rd, rok := r.small()
	on, od, ook := o.small()
	if rok && ook {
		if rd == od {
			return cmpInt(rn, on)
		}
		// Compare rn/rd and on/od via 128-bit cross multiplication.
		return cmpCross(rn, rd, on, od)
	}
	return r.big().Cmp(o.big())
}

// Equal reports whether r == o.
func (r Rat) Equal(o Rat) bool { return r.Cmp(o) == 0 }

// Less reports whether r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// Leq reports whether r <= o.
func (r Rat) Leq(o Rat) bool { return r.Cmp(o) <= 0 }

// Greater reports whether r > o.
func (r Rat) Greater(o Rat) bool { return r.Cmp(o) > 0 }

// Geq reports whether r >= o.
func (r Rat) Geq(o Rat) bool { return r.Cmp(o) >= 0 }

// Min returns the smaller of a and b.
func Min(a, b Rat) Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Rat) Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// MaxOf returns the maximum of one or more values.
func MaxOf(first Rat, rest ...Rat) Rat {
	m := first
	for _, v := range rest {
		m = Max(m, v)
	}
	return m
}

// Floor returns the greatest integer <= r, as a Rat.
func (r Rat) Floor() Rat {
	if n, d, ok := r.small(); ok {
		q := n / d
		if n%d != 0 && n < 0 {
			q--
		}
		return I(q)
	}
	q := new(big.Int).Quo(r.b.Num(), r.b.Denom())
	// big.Int Quo truncates toward zero; adjust for negative non-integers.
	if r.b.Sign() < 0 && !r.b.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return fromBigRat(new(big.Rat).SetInt(q))
}

// Mod returns r modulo m, i.e. r - floor(r/m)*m, for m > 0.
// The result lies in [0, m). It panics if m <= 0.
func (r Rat) Mod(m Rat) Rat {
	if m.Sign() <= 0 {
		panic("rat: Mod with non-positive modulus")
	}
	return r.Sub(r.Div(m).Floor().Mul(m))
}

// Float64 returns the nearest float64 to r. It is intended for reporting and
// heuristic scoring only; never use it in correctness decisions.
func (r Rat) Float64() float64 {
	if n, d, ok := r.small(); ok {
		return float64(n) / float64(d)
	}
	f, _ := r.b.Float64()
	return f
}

// Num64 returns the numerator and whether it fits in an int64.
func (r Rat) Num64() (int64, bool) {
	if n, _, ok := r.small(); ok {
		return n, true
	}
	if r.b.Num().IsInt64() {
		return r.b.Num().Int64(), true
	}
	return 0, false
}

// Den64 returns the denominator and whether it fits in an int64.
func (r Rat) Den64() (int64, bool) {
	if _, d, ok := r.small(); ok {
		return d, true
	}
	if r.b.Denom().IsInt64() {
		return r.b.Denom().Int64(), true
	}
	return 0, false
}

// Append appends the String form of r to dst and returns the extended
// slice. On the int64 fast path it allocates nothing beyond dst's own
// growth (strconv, no fmt) — key-building hot loops use it.
func (r Rat) Append(dst []byte) []byte {
	if n, d, ok := r.small(); ok {
		dst = strconv.AppendInt(dst, n, 10)
		if d != 1 {
			dst = append(dst, '/')
			dst = strconv.AppendInt(dst, d, 10)
		}
		return dst
	}
	return append(dst, r.String()...)
}

// String renders r as "n" for integers and "n/d" otherwise.
func (r Rat) String() string {
	if _, _, ok := r.small(); ok {
		var buf [41]byte // two int64s and a slash
		return string(r.Append(buf[:0]))
	}
	if r.b.IsInt() {
		return r.b.Num().String()
	}
	return r.b.RatString()
}

// Decimal renders r as a decimal string with the given number of fractional
// digits, for human-readable tables.
func (r Rat) Decimal(digits int) string {
	return r.bigCopy().FloatString(digits)
}

// Parse parses a rational from one of three forms: an integer ("42", "-7"),
// a fraction ("23/3", "-9999/10000"), or a decimal ("0.9999", "-1.5").
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("rat: empty string")
	}
	numText, denText, frac := strings.Cut(s, "/")
	// Fast path, no math/big: numerator and denominator (1 for an integer)
	// that strconv reads as base-10 int64s. Every other form — and every
	// error — is the general path's below (FuzzParse pins the agreement).
	if n, err := strconv.ParseInt(numText, 10, 64); err == nil {
		if !frac {
			return New(n, 1), nil
		}
		if d, err := strconv.ParseInt(denText, 10, 64); err == nil && d != 0 {
			return New(n, d), nil
		}
	}
	if frac {
		num, ok1 := new(big.Int).SetString(strings.TrimSpace(numText), 10)
		den, ok2 := new(big.Int).SetString(strings.TrimSpace(denText), 10)
		if !ok1 || !ok2 {
			return Zero, fmt.Errorf("rat: cannot parse %q", s)
		}
		if den.Sign() == 0 {
			return Zero, fmt.Errorf("rat: zero denominator in %q", s)
		}
		return fromBigRat(new(big.Rat).SetFrac(num, den)), nil
	}
	br, ok := new(big.Rat).SetString(s)
	if !ok {
		return Zero, fmt.Errorf("rat: cannot parse %q", s)
	}
	return fromBigRat(br), nil
}

// MustParse is Parse that panics on error; intended for constants in tests
// and examples.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// MarshalText implements encoding.TextMarshaler using the String form.
func (r Rat) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler accepting any form
// understood by Parse.
func (r *Rat) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// MarshalJSON encodes r as a JSON string in exact form, e.g. "23/3".
func (r Rat) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON decodes either a JSON string ("23/3", "0.9999") or a bare
// JSON number (42, 0.5). Bare floats are converted exactly (binary value).
func (r *Rat) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := Parse(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// --- int64 helpers ---

// gcd64 returns the greatest common divisor of a and b (gcd(0, b) == b).
// Either operand 1 answers at once — multiplications by ±1 and sums with an
// integer — and Euclid runs in 32-bit divisions as soon as both operands
// fit, which they do from the start for the denominators the searches
// produce (a binary GCD measured slower on this code's operands, DESIGN §2a).
func gcd64(a, b uint64) uint64 {
	if a == 1 || b == 1 {
		return 1
	}
	for b != 0 {
		if a|b <= math.MaxUint32 {
			x, y := uint32(a), uint32(b)
			for y != 0 {
				x, y = y, x%y
			}
			return uint64(x)
		}
		a, b = b, a%b
	}
	return a
}

// quo returns a/b for b > 0, in a 32-bit division when both operands fit
// (a negative a does not).
func quo(a, b int64) int64 {
	if uint64(a)|uint64(b) <= math.MaxUint32 {
		return int64(uint32(a) / uint32(b))
	}
	return a / b
}

// add64 returns a+b and whether it is a small Rat's numerator: no overflow
// (the operands share a sign the sum lacks) and not MinInt64.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0 && s != math.MinInt64
}

// mul64 returns a*b and whether it is a small Rat's field: |a·b| < 2^63,
// checked on the 128-bit product of the magnitudes, so MinInt64 is excluded.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	return a * b, hi == 0 && lo <= math.MaxInt64
}

// cmpCross compares a/b and c/d (b, d > 0) exactly using 128-bit magnitude
// products, avoiding both overflow and allocation.
func cmpCross(a, b, c, d int64) int {
	// Signs first: a/b sign is sign(a); c/d sign is sign(c).
	sa, sc := cmpInt(a, 0), cmpInt(c, 0)
	if sa != sc {
		if sa < sc {
			return -1
		}
		return 1
	}
	if sa == 0 {
		return 0
	}
	// Same nonzero sign: compare |a|*d vs |c|*b, flip if negative.
	hi1, lo1 := bits.Mul64(absU64(a), uint64(d))
	hi2, lo2 := bits.Mul64(absU64(c), uint64(b))
	cmp := cmpUint128(hi1, lo1, hi2, lo2)
	if sa < 0 {
		return -cmp
	}
	return cmp
}

// cmpInt compares two integers: -1, 0 or +1.
func cmpInt(a, b int64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	default:
		return 0
	}
}

// absU64 returns |x|; MinInt64 wraps to itself and converts to 2^63.
func absU64(x int64) uint64 {
	if x < 0 {
		return uint64(-x)
	}
	return uint64(x)
}

func cmpUint128(h1, l1, h2, l2 uint64) int {
	switch {
	case h1 < h2:
		return -1
	case h1 > h2:
		return 1
	case l1 < l2:
		return -1
	case l1 > l2:
		return 1
	default:
		return 0
	}
}
