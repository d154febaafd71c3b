package clockfn

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Q is an immutable exact rational. A value whose reduced numerator and
// denominator both fit in an int64 is held inline, so arithmetic on it
// neither allocates nor normalizes through math/big; any other value is
// held as a *big.Rat that is never mutated once built, so copies of a Q
// may share it, across goroutines too. The representation is canonical
// (inline exactly when the value fits), and every result equals
// big.Rat's: String is RatString, ParseQ is SetString on the plain
// decimal form, Float64 is big.Rat.Float64.
//
// The zero value is 0.
type Q struct {
	num  int64    // reduced numerator, when r == nil
	den1 int64    // reduced denominator minus one, so the zero value is 0/1
	r    *big.Rat // the value, when it does not fit inline
}

// inline is the inline form of n/d, which the caller has reduced (d > 0).
func inline(n, d int64) Q { return Q{num: n, den1: d - 1} }

func (q Q) den() int64 { return q.den1 + 1 }

// NewQ returns num/den, like big.NewRat. It panics if den is 0.
func NewQ(num, den int64) Q {
	if den == 0 {
		panic("clockfn: division by zero")
	}
	if den < 0 {
		if num == math.MinInt64 || den == math.MinInt64 {
			return fromBig(big.NewRat(num, den))
		}
		num, den = -num, -den
	}
	g := int64(gcd(abs64(num), uint64(den)))
	return inline(num/g, den/g)
}

// FromRat returns r's value. r is only read, never retained.
func FromRat(r *big.Rat) Q {
	q := fromBig(r)
	if q.r != nil {
		q.r = new(big.Rat).Set(r)
	}
	return q
}

// fromBig takes ownership of r, which nothing may mutate afterwards, and
// returns its value in canonical form.
func fromBig(r *big.Rat) Q {
	if n := r.Num(); n.IsInt64() {
		if r.IsInt() {
			return inline(n.Int64(), 1)
		}
		if d := r.Denom(); d.IsInt64() {
			return inline(n.Int64(), d.Int64())
		}
	}
	return Q{r: r}
}

// Rat sets z to q and returns z. An inline value is stored without
// re-normalizing: it is already reduced, so setting the numerator and
// then the denominator in place is exact.
func (q Q) Rat(z *big.Rat) *big.Rat {
	if q.r != nil {
		return z.Set(q.r)
	}
	z.SetInt64(q.num) // initializes z, so Denom is a reference to z's denominator
	if q.den1 != 0 {
		z.Denom().SetInt64(q.den())
	}
	return z
}

// rat returns q as a *big.Rat the caller must not mutate: the slow path
// of every operation with an operand or a result that does not fit.
func (q Q) rat() *big.Rat {
	if q.r != nil {
		return q.r
	}
	return q.Rat(new(big.Rat))
}

// Sign returns -1, 0 or +1 as q is negative, zero or positive.
func (q Q) Sign() int {
	if q.r != nil {
		return q.r.Sign()
	}
	return cmp.Compare(q.num, 0)
}

// Cmp compares q and x, returning -1, 0 or +1.
func (q Q) Cmp(x Q) int {
	if q.r == nil && x.r == nil {
		if q.den1 == x.den1 {
			return cmp.Compare(q.num, x.num)
		}
		return cmpFrac(q.num, q.den(), x.num, x.den())
	}
	return q.rat().Cmp(x.rat())
}

// Add returns q + x.
func (q Q) Add(x Q) Q {
	if q.r == nil && x.r == nil {
		if s, ok := addInline(q.num, q.den(), x.num, x.den()); ok {
			return s
		}
	}
	return fromBig(new(big.Rat).Add(q.rat(), x.rat()))
}

// Sub returns q - x.
func (q Q) Sub(x Q) Q {
	if q.r == nil && x.r == nil && x.num != math.MinInt64 {
		if s, ok := addInline(q.num, q.den(), -x.num, x.den()); ok {
			return s
		}
	}
	return fromBig(new(big.Rat).Sub(q.rat(), x.rat()))
}

// Mul returns q * x.
func (q Q) Mul(x Q) Q {
	if q.r == nil && x.r == nil {
		if p, ok := mulInline(q.num, q.den(), x.num, x.den()); ok {
			return p
		}
	}
	return fromBig(new(big.Rat).Mul(q.rat(), x.rat()))
}

// Quo returns q / x. It panics if x is 0.
func (q Q) Quo(x Q) Q {
	if x.Sign() == 0 {
		panic("clockfn: division by zero")
	}
	if q.r == nil && x.r == nil {
		n, d := x.den(), x.num // x⁻¹ = n/d, d ≠ 0
		if d < 0 && d != math.MinInt64 {
			n, d = -n, -d
		}
		if d > 0 {
			if p, ok := mulInline(q.num, q.den(), n, d); ok {
				return p
			}
		}
	}
	return fromBig(new(big.Rat).Quo(q.rat(), x.rat()))
}

// Neg returns -q.
func (q Q) Neg() Q {
	if q.r == nil && q.num != math.MinInt64 {
		return Q{num: -q.num, den1: q.den1}
	}
	return fromBig(new(big.Rat).Neg(q.rat()))
}

// Inv returns 1/q. It panics if q is 0.
func (q Q) Inv() Q {
	if q.Sign() == 0 {
		panic("clockfn: division by zero")
	}
	if q.r == nil && q.num != math.MinInt64 {
		if q.num < 0 {
			return inline(-q.den(), -q.num)
		}
		return inline(q.den(), q.num)
	}
	return fromBig(new(big.Rat).Inv(q.rat()))
}

// maxExact is the largest magnitude below which every integer is a
// float64: n/d rounds correctly in one division when both are at most it.
const maxExact = 1 << 53

// Float64 returns the float64 nearest to q, as big.Rat.Float64 does.
func (q Q) Float64() float64 {
	if q.r == nil && abs64(q.num) <= maxExact && q.den() <= maxExact {
		return float64(q.num) / float64(q.den())
	}
	f, _ := q.rat().Float64()
	return f
}

// String formats q as big.Rat.RatString does: "n" for an integer, "n/d"
// otherwise.
func (q Q) String() string {
	if q.r != nil {
		return q.r.RatString()
	}
	var buf [40]byte
	b := strconv.AppendInt(buf[:0], q.num, 10)
	if q.den1 != 0 {
		b = append(b, '/')
		b = strconv.AppendInt(b, q.den(), 10)
	}
	return string(b)
}

// ParseQ reads s in the plain decimal form that String writes and
// Reg.SetString reads, "[-]n" or "[-]n/d" with digits only, no leading
// zero and d > 0, and reports whether s is in that form. The value need
// not be reduced. Anything else, exponents and other bases included,
// is rejected, so a value's size is bounded by its text. Parts of at
// most 18 digits are read without math/big.
func ParseQ(s string) (Q, bool) {
	if q, ok := parseInline(s); ok {
		return q, true
	}
	if _, _, _, ok := splitPlain(s); !ok {
		return Q{}, false
	}
	r, _ := new(big.Rat).SetString(s)
	return fromBig(r), true
}

// parseInline reads "[-]n" or "[-]n/d" in the plain decimal form String
// writes; it reports false for every other string, well formed or not.
func parseInline(s string) (Q, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	n, rest, ok := parseDigits(s, true)
	if !ok {
		return Q{}, false
	}
	if neg {
		n = -n
	}
	if rest == "" {
		return inline(n, 1), true
	}
	if rest[0] != '/' {
		return Q{}, false
	}
	d, rest, ok := parseDigits(rest[1:], false)
	if !ok || rest != "" {
		return Q{}, false
	}
	g := int64(gcd(abs64(n), uint64(d)))
	return inline(n/g, d/g), true
}

// parseDigits reads a decimal of 1 to 18 digits from the front of s
// (which then fits an int64) with no leading zero; a lone "0" is read
// only when zeroOK. A leading zero marks an octal part of a fraction in
// SetString, so it is left to SetString.
func parseDigits(s string, zeroOK bool) (v int64, rest string, ok bool) {
	i := 0
	for i < len(s) && i < 19 && '0' <= s[i] && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
	}
	switch {
	case i == 0 || i > 18:
		return 0, s, false
	case s[0] == '0' && (i > 1 || !zeroOK):
		return 0, s, false
	}
	return v, s[i:], true
}

// addInline returns a/b + c/d (b, d > 0, both fractions reduced) in
// reduced form, or false if an intermediate does not fit an int64. With
// g = gcd(b, d) it follows Knuth (TAOCP 4.5.1): t = a(d/g) + c(b/g) and
// g2 = gcd(t, g) give (t/g2) / ((b/g)(d/g2)), reduced.
func addInline(a, b, c, d int64) (Q, bool) {
	if b == d {
		n, ok := add64(a, c)
		if !ok {
			return Q{}, false
		}
		g := int64(gcd(abs64(n), uint64(b)))
		return inline(n/g, b/g), true
	}
	g := int64(gcd(uint64(b), uint64(d)))
	bg, dg := b/g, d/g
	ad, ok1 := mul64(a, dg)
	cb, ok2 := mul64(c, bg)
	t, ok3 := add64(ad, cb)
	if !ok1 || !ok2 || !ok3 {
		return Q{}, false
	}
	g2 := int64(gcd(abs64(t), uint64(g)))
	den, ok := mul64(bg, d/g2)
	if !ok {
		return Q{}, false
	}
	return inline(t/g2, den), true
}

// mulInline returns (a/b)(c/d) (b, d > 0, both fractions reduced) in
// reduced form, or false if the product does not fit an int64. Cross
// cancellation before multiplying leaves nothing to reduce.
func mulInline(a, b, c, d int64) (Q, bool) {
	g1 := int64(gcd(abs64(a), uint64(d)))
	g2 := int64(gcd(abs64(c), uint64(b)))
	n, ok1 := mul64(a/g1, c/g2)
	m, ok2 := mul64(b/g2, d/g1)
	if !ok1 || !ok2 {
		return Q{}, false
	}
	return inline(n, m), true
}

// cmpFrac compares a/b and c/d (b, d > 0) by cross-multiplying in 128
// bits, which cannot overflow.
func cmpFrac(a, b, c, d int64) int {
	sa, sc := cmp.Compare(a, 0), cmp.Compare(c, 0)
	if sa != sc || sa == 0 {
		return cmp.Compare(sa, sc)
	}
	hi1, lo1 := bits.Mul64(abs64(a), uint64(d))
	hi2, lo2 := bits.Mul64(abs64(c), uint64(b))
	if hi1 != hi2 {
		return sa * cmp.Compare(hi1, hi2)
	}
	return sa * cmp.Compare(lo1, lo2)
}

// mul64 returns a*b and whether it fits an int64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if (a < 0) != (b < 0) {
		if hi != 0 || lo > 1<<63 {
			return 0, false
		}
		return int64(-lo), true // -(1<<63) wraps to MinInt64, as it should
	}
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// add64 returns a+b and whether it fits an int64.
func add64(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0
}

// gcd is the binary greatest common divisor; gcd(0, b) = b.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}

// abs64 is |a| as a uint64, exact for math.MinInt64 too.
func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}
