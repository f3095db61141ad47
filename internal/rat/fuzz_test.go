package rat

import (
	"fmt"
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
