// Package clockfn provides the time-function algebra behind the FLM85
// clock synchronization results (Section 7): increasing invertible
// functions of time with exact inverses and composition, so the paper's
// h = p⁻¹∘q, its iterates hⁱ, and the scaled scenarios Sᵢhⁱ can be built
// symbolically.
//
// Two layers coexist:
//
//   - Fn: float64 functions used for envelopes (l, u) and condition
//     evaluation — linear, logarithmic, exponential, compositions.
//   - RatLinear: exact rational affine clocks over Q, used for event
//     scheduling in the timed simulator, where exactness guarantees that
//     scaling a run reorders nothing.
//
// Q is the exact rational of the second layer: an immutable value that
// holds int64 parts inline and falls back to math/big only for a value
// that does not fit. Reg is the mutable register of the averaging
// devices, whose state outgrows int64: it holds a dyadic value as a
// big.Int and a shift, so it adds, halves and compares without a gcd.
package clockfn

import (
	"fmt"
	"math"
)

// Fn is an increasing invertible function of time.
type Fn interface {
	At(t float64) float64
	Inv(y float64) float64
	String() string
}

// Linear is f(t) = Rate*t + Off with Rate > 0.
type Linear struct {
	Rate, Off float64
}

var _ Fn = Linear{}

// At evaluates the function.
func (f Linear) At(t float64) float64 { return f.Rate*t + f.Off }

// Inv evaluates the inverse.
func (f Linear) Inv(y float64) float64 { return (y - f.Off) / f.Rate }

func (f Linear) String() string { return fmt.Sprintf("%g*t%+g", f.Rate, f.Off) }

// Identity is f(t) = t.
func Identity() Fn { return Linear{Rate: 1} }

// Log2 is f(t) = log2(t), defined for t > 0 (Corollary 15's lower
// envelope).
type Log2 struct{}

var _ Fn = Log2{}

// At evaluates the function.
func (Log2) At(t float64) float64 { return math.Log2(t) }

// Inv evaluates the inverse.
func (Log2) Inv(y float64) float64 { return math.Exp2(y) }

func (Log2) String() string { return "log2(t)" }

// Exp2 is f(t) = 2^t, the inverse of Log2.
type Exp2 struct{}

var _ Fn = Exp2{}

// At evaluates the function.
func (Exp2) At(t float64) float64 { return math.Exp2(t) }

// Inv evaluates the inverse.
func (Exp2) Inv(y float64) float64 { return math.Log2(y) }

func (Exp2) String() string { return "2^t" }

// compose is outer ∘ inner.
type compose struct {
	outer, inner Fn
}

var _ Fn = compose{}

// Compose returns outer ∘ inner: t -> outer(inner(t)).
func Compose(outer, inner Fn) Fn { return compose{outer: outer, inner: inner} }

func (c compose) At(t float64) float64  { return c.outer.At(c.inner.At(t)) }
func (c compose) Inv(y float64) float64 { return c.inner.Inv(c.outer.Inv(y)) }
func (c compose) String() string        { return c.outer.String() + " ∘ " + c.inner.String() }

// inverse flips a function.
type inverse struct{ f Fn }

var _ Fn = inverse{}

// Inverse returns f⁻¹ as a function.
func Inverse(f Fn) Fn { return inverse{f: f} }

func (i inverse) At(t float64) float64  { return i.f.Inv(t) }
func (i inverse) Inv(y float64) float64 { return i.f.At(y) }
func (i inverse) String() string        { return "(" + i.f.String() + ")⁻¹" }

// RatLinear is the exact affine clock D(t) = Rate*t + Off over the
// rationals. The zero value is unusable; construct with NewRatLinear or
// RatIdentity.
type RatLinear struct {
	Rate, Off Q
}

// NewRatLinear builds the exact clock (num/den)*t + (onum/oden).
func NewRatLinear(num, den, onum, oden int64) RatLinear {
	return RatLinear{Rate: NewQ(num, den), Off: NewQ(onum, oden)}
}

// RatIdentity is the exact identity clock.
func RatIdentity() RatLinear { return NewRatLinear(1, 1, 0, 1) }

// At evaluates the clock at an exact time.
func (f RatLinear) At(t Q) Q { return f.Rate.Mul(t).Add(f.Off) }

// Inv evaluates the exact inverse.
func (f RatLinear) Inv(y Q) Q { return y.Sub(f.Off).Quo(f.Rate) }

// ComposeRat returns f ∘ g exactly (another affine clock).
func (f RatLinear) ComposeRat(g RatLinear) RatLinear {
	return RatLinear{Rate: f.Rate.Mul(g.Rate), Off: f.Rate.Mul(g.Off).Add(f.Off)}
}

// InverseRat returns f⁻¹ exactly.
func (f RatLinear) InverseRat() RatLinear {
	rate := f.Rate.Inv()
	return RatLinear{Rate: rate, Off: rate.Mul(f.Off).Neg()}
}

// IterateRat returns fⁿ exactly (negative n inverts).
func (f RatLinear) IterateRat(n int) RatLinear {
	out := RatIdentity()
	base := f
	if n < 0 {
		base = f.InverseRat()
		n = -n
	}
	for i := 0; i < n; i++ {
		out = base.ComposeRat(out)
	}
	return out
}

// Iterates returns the table [h⁰, h¹, ..., hⁿ] (or the inverse iterates
// for sign < 0) built incrementally, so callers that need every power up
// to n pay O(n) compositions instead of the O(n²) of calling IterateRat
// per index. Iterates(h, -1, n)[i] equals h.IterateRat(-i) exactly.
func Iterates(h RatLinear, sign, n int) []RatLinear {
	base := h
	if sign < 0 {
		base = h.InverseRat()
	}
	out := make([]RatLinear, n+1)
	out[0] = RatIdentity()
	for i := 1; i <= n; i++ {
		out[i] = base.ComposeRat(out[i-1])
	}
	return out
}

// Float returns the float64 view of the clock for condition evaluation.
func (f RatLinear) Float() Linear {
	return Linear{Rate: f.Rate.Float64(), Off: f.Off.Float64()}
}

// Cmp compares two exact clocks for equality of law.
func (f RatLinear) Cmp(g RatLinear) bool {
	return f.Rate.Cmp(g.Rate) == 0 && f.Off.Cmp(g.Off) == 0
}

func (f RatLinear) String() string {
	return f.Rate.String() + "*t+" + f.Off.String()
}
