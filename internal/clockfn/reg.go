package clockfn

import (
	"math"
	"math/big"
	"math/bits"
)

// Reg is a mutable exact rational register for the averaging clock
// devices, whose corrections move halfway every tick. With a dyadic tick
// spacing every reading and correction is dyadic, m/2^e, and the
// register holds such a value as the big.Int m and the shift e: Add and
// Sub align the two values with a left shift, halving increments e, and
// Cmp aligns, then compares, so none of them takes a gcd. A value that
// is not dyadic (a neighbor's reading of 1/3, or a tick spacing with an
// odd denominator) is held in a big.Rat inside the same register, the
// way Q falls back from int64 to big.Rat.
//
// Like big.Rat, a Reg reuses its storage, so a device that keeps its
// state in a few registers allocates nothing per operation once they
// have grown. Every read — Cmp, Float64 and Append included — may use
// the register's own scratch, so a Reg is not safe for concurrent use,
// and it must not be copied by value.
//
// The zero value is 0.
type Reg struct {
	// The value is m/2^e, with m odd or e = 0, unless rat is set; then
	// it is r, which is not dyadic.
	m    big.Int
	e    uint
	rat  bool
	r    big.Rat
	text string  // the value's RatString when it was parsed canonical, or ""
	t    big.Int // alignment, rounding and formatting scratch
}

// Set sets z to x and returns z.
func (z *Reg) Set(x *Reg) *Reg {
	if z != x {
		if z.rat = x.rat; x.rat {
			z.r.Set(&x.r)
		} else {
			z.m.Set(&x.m)
			z.e = x.e
		}
		z.text = x.text
	}
	return z
}

// SetQ sets z to q and returns z. A dyadic inline value is set without
// math/big normalization: Q is reduced, so its numerator is odd whenever
// its denominator is a power of two above 1.
func (z *Reg) SetQ(q Q) *Reg {
	z.text = ""
	if q.r != nil {
		z.r.Set(q.r)
		z.rat = true
		z.norm()
		return z
	}
	if d := uint64(q.den()); d&(d-1) == 0 {
		z.m.SetInt64(q.num)
		z.e = uint(bits.TrailingZeros64(d))
		z.rat = false
		return z
	}
	q.Rat(&z.r)
	z.rat = true
	return z
}

// Add sets z to x + y and returns z.
func (z *Reg) Add(x, y *Reg) *Reg { return z.add(x, y, false) }

// Sub sets z to x - y and returns z.
func (z *Reg) Sub(x, y *Reg) *Reg { return z.add(x, y, true) }

func (z *Reg) add(x, y *Reg, sub bool) *Reg {
	z.text = ""
	if x.rat || y.rat {
		var a, b big.Rat
		if ra, rb := x.bigRat(&a), y.bigRat(&b); sub {
			z.r.Sub(ra, rb)
		} else {
			z.r.Add(ra, rb)
		}
		z.rat = true
		z.norm()
		return z
	}
	// Align to the larger shift. The scratch is z's own, so z may be x
	// or y: the shifted operand is read before z.m is written.
	xm, ym, e := &x.m, &y.m, x.e
	switch {
	case x.e > y.e:
		ym = z.t.Lsh(ym, x.e-y.e)
	case x.e < y.e:
		xm, e = z.t.Lsh(xm, y.e-x.e), y.e
	}
	if sub {
		z.m.Sub(xm, ym)
	} else {
		z.m.Add(xm, ym)
	}
	z.e = e
	z.rat = false
	z.normDyadic()
	return z
}

// Half sets z to x/2 and returns z.
func (z *Reg) Half(x *Reg) *Reg {
	z.Set(x)
	z.text = ""
	if z.rat {
		// A reduced fraction stays reduced when an even numerator is
		// halved or an odd one's denominator doubles.
		if num := z.r.Num(); num.Bit(0) == 0 {
			num.Rsh(num, 1)
		} else {
			den := z.r.Denom() // a reference: a non-dyadic value is no integer
			den.Lsh(den, 1)
		}
		return z
	}
	if z.e == 0 && z.m.Bit(0) == 0 { // an even integer, 0 included
		z.m.Rsh(&z.m, 1)
	} else {
		z.e++
	}
	return z
}

// Cmp compares x and y, returning -1, 0 or +1.
func (x *Reg) Cmp(y *Reg) int {
	if x.rat || y.rat {
		var a, b big.Rat
		return x.bigRat(&a).Cmp(y.bigRat(&b))
	}
	switch {
	case x.e > y.e:
		return x.m.Cmp(x.t.Lsh(&y.m, x.e-y.e))
	case x.e < y.e:
		return x.t.Lsh(&x.m, y.e-x.e).Cmp(&y.m)
	}
	return x.m.Cmp(&y.m)
}

// Float64 returns the float64 nearest to x, as big.Rat.Float64 does. A
// dyadic value rounds once: |m| is cut to 64 bits with the bits cut off
// folded into the lowest (round to odd, which the rounding to 53 bits
// cannot tell from the exact value), and the shift is exact while the
// result stays a normal float64. Past that, the exact mantissa goes
// through a big.Float with exponent -e. That path allocates twice a
// call: taking it for every value made the midpoint Theorem 8 ring
// allocate 18% more.
func (x *Reg) Float64() float64 {
	if x.rat {
		f, _ := x.r.Float64()
		return f
	}
	n := x.m.BitLen()
	if n == 0 {
		return 0
	}
	if exp := n - 1 - int(x.e); -1022 <= exp && exp < 1023 {
		cut := uint(max(n-64, 0))
		u := x.t.Rsh(x.t.Abs(&x.m), cut).Uint64()
		if x.m.TrailingZeroBits() < cut {
			u |= 1
		}
		f := math.Ldexp(float64(u), int(cut)-int(x.e))
		if x.m.Sign() < 0 {
			f = -f
		}
		return f
	}
	var f big.Float
	v, _ := f.SetInt(&x.m).SetMantExp(&f, -int(x.e)).Float64()
	return v
}

// Append appends x formatted as big.Rat.RatString does, "n" for an
// integer and "n/d" otherwise, and returns the extended buffer. A value
// parsed from its canonical text appends that text.
func (x *Reg) Append(b []byte) []byte {
	switch {
	case x.text != "":
		return append(b, x.text...)
	case x.rat:
		b = x.r.Num().Append(b, 10)
		return x.r.Denom().Append(append(b, '/'), 10)
	}
	b = x.m.Append(b, 10)
	if x.e == 0 {
		return b
	}
	x.t.SetInt64(1)
	return x.t.Lsh(&x.t, x.e).Append(append(b, '/'), 10)
}

// SetString sets z to the value of s and reports whether s is in the
// plain decimal form that RatString writes: "[-]n" or "[-]n/d", digits
// only, no leading zero, d > 0. The value need not be reduced ("6/4",
// "-0" and "5/1" are read). Anything else, exponents and other bases
// included, is rejected and leaves z unchanged, so a value's size is
// bounded by its text.
func (z *Reg) SetString(s string) bool {
	num, den, neg, ok := splitPlain(s)
	if !ok {
		return false
	}
	z.text = ""
	setDecimal(&z.m, num, neg)
	z.rat = false
	canonical := false
	if den == "" {
		z.e = 0
		canonical = !neg || num != "0"
	} else if isPow2(setDecimal(&z.t, den, false)) {
		z.e = z.t.TrailingZeroBits()
		canonical = z.e > 0 && z.m.Bit(0) == 1
		z.normDyadic()
	} else {
		z.r.SetFrac(&z.m, &z.t)
		z.rat = true
		canonical = z.r.Denom().Cmp(&z.t) == 0 // nothing cancelled
		z.norm()
	}
	if canonical {
		z.text = s
	}
	return true
}

// splitPlain splits s in the plain form "[-]n" or "[-]n/d" into its
// digit strings, or reports false.
func splitPlain(s string) (num, den string, neg, ok bool) {
	if neg = len(s) > 0 && s[0] == '-'; neg {
		s = s[1:]
	}
	i := 0
	for i < len(s) && s[i] != '/' {
		i++
	}
	num = s[:i]
	if !plainDigits(num, true) {
		return "", "", false, false
	}
	if i == len(s) {
		return num, "", neg, true
	}
	den = s[i+1:]
	if !plainDigits(den, false) {
		return "", "", false, false
	}
	return num, den, neg, true
}

// plainDigits reports whether s is a nonempty decimal with no leading
// zero; the lone "0" passes only when zeroOK.
func plainDigits(s string, zeroOK bool) bool {
	if s == "" || (s[0] == '0' && (len(s) > 1 || !zeroOK)) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// decChunk is the most decimal digits whose value fits one big.Word.
const decChunk = 9 + 10*(bits.UintSize/64)

// pow10 holds 10^k for k = 0..decChunk.
var pow10 = func() (p [decChunk + 1]uint) {
	p[0] = 1
	for k := 1; k <= decChunk; k++ {
		p[k] = p[k-1] * 10
	}
	return p
}()

// setDecimal sets z to the decimal digits s (negated when neg) and
// returns z. It multiplies and adds in place on z's words, a chunk of
// digits at a time, so it allocates only when z grows. big.Int.SetString,
// which reads a byte at a time through an io.ByteScanner, made the
// midpoint Theorem 8 ring take 15 ms instead of 8.
func setDecimal(z *big.Int, s string, neg bool) *big.Int {
	w := z.Bits()[:0]
	for s != "" {
		k := min(len(s), decChunk)
		var c uint
		for i := 0; i < k; i++ {
			c = c*10 + uint(s[i]-'0')
		}
		for i, x := range w { // w = w*10^k + c
			hi, lo := bits.Mul(uint(x), pow10[k])
			lo, carry := bits.Add(lo, c, 0)
			w[i], c = big.Word(lo), hi+carry
		}
		if c != 0 {
			w = append(w, big.Word(c))
		}
		s = s[k:]
	}
	z.SetBits(w)
	if neg {
		z.Neg(z)
	}
	return z
}

// isPow2 reports whether x is a positive power of two.
func isPow2(x *big.Int) bool {
	return x.Sign() > 0 && uint(x.BitLen()) == x.TrailingZeroBits()+1
}

// normDyadic restores m odd or e = 0 after an addition.
func (z *Reg) normDyadic() {
	if z.e == 0 {
		return
	}
	if z.m.Sign() == 0 {
		z.e = 0
		return
	}
	if s := min(z.m.TrailingZeroBits(), z.e); s > 0 {
		z.m.Rsh(&z.m, s)
		z.e -= s
	}
}

// norm moves a fallback value whose reduced denominator is a power of
// two back to the dyadic form, so the representation is canonical.
func (z *Reg) norm() {
	if z.r.IsInt() {
		z.m.Set(z.r.Num())
		z.e = 0
		z.rat = false
		return
	}
	if den := z.r.Denom(); isPow2(den) {
		z.m.Set(z.r.Num())
		z.e = den.TrailingZeroBits()
		z.rat = false
	}
}

// bigRat returns x as a big.Rat: the fallback value itself, or the
// dyadic value set into tmp without normalizing, since m/2^e is reduced.
func (x *Reg) bigRat(tmp *big.Rat) *big.Rat {
	if x.rat {
		return &x.r
	}
	tmp.SetInt(&x.m) // initializes the denominator, so Denom is a reference to it
	if x.e > 0 {
		den := tmp.Denom()
		den.Lsh(den, x.e)
	}
	return tmp
}
