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
	// Two is the rational 2.
	Two = Rat{num: 2, den: 1}
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
	g := gcd64(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rat{num: num, den: den}
}

// I returns the rational n/1.
func I(n int64) Rat { return Rat{num: n, den: 1} }

// FromBig returns a Rat equal to r. The argument is copied; later mutation
// of r does not affect the result.
func FromBig(r *big.Rat) Rat {
	return fromBigRat(new(big.Rat).Set(r))
}

// FromFloat returns the exact rational value of f (floats are binary
// rationals). It panics if f is NaN or infinite.
func FromFloat(f float64) Rat {
	br := new(big.Rat).SetFloat64(f)
	if br == nil {
		panic(fmt.Sprintf("rat: FromFloat(%v): not finite", f))
	}
	return fromBigRat(br)
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
		// r + o = (rn*od + on*rd) / (rd*od), computed with overflow checks.
		if x, ok := mul64(rn, od); ok {
			if y, ok := mul64(on, rd); ok {
				if s, ok := add64(x, y); ok {
					if d, ok := mul64(rd, od); ok {
						return New(s, d)
					}
				}
			}
		}
	}
	return fromBigRat(new(big.Rat).Add(r.big(), o.big()))
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat { return r.Add(o.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat {
	if n, d, ok := r.small(); ok && n != math.MinInt64 {
		return Rat{num: -n, den: d}
	}
	return fromBigRat(new(big.Rat).Neg(r.big()))
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	rn, rd, rok := r.small()
	on, od, ook := o.small()
	if rok && ook {
		// Cross-reduce first so intermediate products stay small.
		g1 := gcd64(abs64(rn), od)
		g2 := gcd64(abs64(on), rd)
		a, b := rn/g1, on/g2
		c, d := rd/g2, od/g1
		if n, ok := mul64(a, b); ok {
			if dd, ok := mul64(c, d); ok {
				return Rat{num: n, den: dd} // already in lowest terms
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
	if n, d, ok := r.small(); ok && n != math.MinInt64 {
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
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Sign() == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool {
	if n, d, ok := r.small(); ok {
		_ = n
		return d == 1
	}
	return r.b.IsInt()
}

// Cmp compares r and o, returning -1 if r < o, 0 if r == o, +1 if r > o.
func (r Rat) Cmp(o Rat) int {
	rn, rd, rok := r.small()
	on, od, ook := o.small()
	if rok && ook {
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

// MinOf returns the minimum of one or more values.
func MinOf(first Rat, rest ...Rat) Rat {
	m := first
	for _, v := range rest {
		m = Min(m, v)
	}
	return m
}

// Sum returns the sum of vs (0 for an empty slice).
func Sum(vs ...Rat) Rat {
	s := Zero
	for _, v := range vs {
		s = s.Add(v)
	}
	return s
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

// Ceil returns the least integer >= r, as a Rat.
func (r Rat) Ceil() Rat { return r.Neg().Floor().Neg() }

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

func abs64(x int64) int64 {
	if x < 0 {
		return -x // caller guarantees x != MinInt64
	}
	return x
}

// gcd64 returns the greatest common divisor of non-negative a and b
// (gcd(0, b) == b).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a*b and whether it did not overflow.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// cmpCross compares a/b and c/d (b, d > 0) exactly using 128-bit magnitude
// products, avoiding both overflow and allocation.
func cmpCross(a, b, c, d int64) int {
	// Signs first: a/b sign is sign(a); c/d sign is sign(c).
	sa, sc := sign64(a), sign64(c)
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
	hi1, lo1 := mulUint128(absU64(a), uint64(d))
	hi2, lo2 := mulUint128(absU64(c), uint64(b))
	cmp := cmpUint128(hi1, lo1, hi2, lo2)
	if sa < 0 {
		return -cmp
	}
	return cmp
}

func sign64(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func absU64(x int64) uint64 {
	if x < 0 {
		return uint64(-(x + 1)) + 1 // handles MinInt64
	}
	return uint64(x)
}

// mulUint128 returns the 128-bit product of a and b as (hi, lo).
func mulUint128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
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
