package rat

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

// parseBig is Parse as it was before the int64 fast path: every form goes
// through math/big. It is the oracle the fast path must agree with.
func parseBig(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("rat: empty string")
	}
	if strings.Contains(s, "/") {
		parts := strings.SplitN(s, "/", 2)
		num, ok1 := new(big.Int).SetString(strings.TrimSpace(parts[0]), 10)
		den, ok2 := new(big.Int).SetString(strings.TrimSpace(parts[1]), 10)
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

// stringBig is Rat.String through math/big only.
func stringBig(r Rat) string {
	b := r.big()
	if b.IsInt() {
		return b.Num().String()
	}
	return b.RatString()
}

// FuzzParse pins the int64 fast path of Parse (and of String) to the
// math/big path: same accept/reject, same error text, same value, same
// representation (small or big), same rendering.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"42", "-7", "23/3", " 23 / 3 ", "-9999/10000", "4/8", "0.9999", "-1.5",
		"-0", "+1/2", "1/-2", "-0/5", "007", "0010/0040", "1/0", "0/0", "1/2/3", "1//2", "x/2", "2/x", "",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"-9223372036854775808/2", "3/-9223372036854775808", "-9223372036854775808/-9223372036854775808",
		"18446744073709551616/36893488147419103232", "1e3", "1_000", "0x10", " 12\t", "1 /2", "1/ 2", "+", "-", "/", "1/",
		// The disguised wire forms of bench/inputs.go: k·n/k·d.
		"14/21", "63/9", "4998/5000", "8/8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := Parse(s)
		want, wantErr := parseBig(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q) error = %v, math/big path error = %v", s, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Parse(%q) error %q, math/big path %q", s, gotErr, wantErr)
			}
			return
		}
		if !got.Equal(want) || (got.b == nil) != (want.b == nil) || got.num != want.num || got.den != want.den {
			t.Fatalf("Parse(%q) = %#v, math/big path %#v", s, got, want)
		}
		if got.String() != stringBig(want) {
			t.Fatalf("Parse(%q).String() = %q, math/big rendering %q", s, got.String(), stringBig(want))
		}
	})
}

// FuzzArith pins the int64 kernel to math/big on int64 quadruples an/ad,
// bn/bd: every operation returns the math/big value in canonical form —
// small exactly when it fits, never MinInt64 — and Interval is the reference
// enclosure of every operand and result.
func FuzzArith(f *testing.F) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, q := range [][4]int64{
		{-1 << 62, 1, 2, 1}, {-1 << 62, 1, -1 << 62, 1}, // the −2^63 product and sum
		{maxI, 1, maxI, 1}, {-maxI, 1, maxI, 1}, {maxI, 1, 1, maxI}, {minI, 1, -1, 1}, {1, minI, minI, 3},
		{1 << 31, 1, 1 << 31, 1}, {1 << 32, 1, 1 << 31, 1}, {1 << 31, 3, 1 << 32, 5},
		{1<<53 + 1, 1, 1, 1<<53 - 1}, {1<<53 - 1, 1 << 53, 1 << 53, 1<<53 + 1}, {-(1 << 53), 1<<53 - 1, 1, 1 << 53},
		{41, 1, 7, 1}, {1, 3, 1, 3}, {1, 3, -1, 3}, {4, 1, 23, 3}, {1, 3, 1, 6}, {23, 3, 5, 7}, {5, 12, 7, 18},
		{9999, 10000, 10000, 9999}, {0, 5, 0, -7}, {-7, 2, 7, 2},
	} {
		f.Add(q[0], q[1], q[2], q[3])
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			return
		}
		a, b := New(an, ad), New(bn, bd)
		ra, rb := new(big.Rat).SetFrac(big.NewInt(an), big.NewInt(ad)), new(big.Rat).SetFrac(big.NewInt(bn), big.NewInt(bd))
		check := func(what string, got Rat, want *big.Rat) {
			t.Helper()
			checkRep(t, what, got)
			if got.big().Cmp(want) != 0 {
				t.Fatalf("%s(%s, %s) = %s, math/big %s", what, a, b, got, want.RatString())
			}
			checkInterval(t, got)
		}
		check("a", a, ra)
		check("b", b, rb)
		check("Add", a.Add(b), new(big.Rat).Add(ra, rb))
		check("Sub", a.Sub(b), new(big.Rat).Sub(ra, rb))
		check("Mul", a.Mul(b), new(big.Rat).Mul(ra, rb))
		if !b.IsZero() {
			check("Div", a.Div(b), new(big.Rat).Quo(ra, rb))
		}
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, math/big %d", a, b, got, want)
		}
		floor := new(big.Int).Div(ra.Num(), ra.Denom()) // Euclidean; the denominator is positive, so this is floor
		check("Floor", a.Floor(), new(big.Rat).SetInt(floor))
	})
}
