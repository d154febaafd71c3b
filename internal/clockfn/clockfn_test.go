package clockfn

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLinearRoundTrip(t *testing.T) {
	f := Linear{Rate: 1.5, Off: -2}
	prop := func(t64 float64) bool {
		if math.IsNaN(t64) || math.IsInf(t64, 0) || math.Abs(t64) > 1e12 {
			return true
		}
		return almost(f.Inv(f.At(t64)), t64)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2Exp2Inverse(t *testing.T) {
	for _, x := range []float64{0.5, 1, 2, 10, 1000} {
		if !almost(Log2{}.Inv(Log2{}.At(x)), x) {
			t.Errorf("log2 round trip at %v", x)
		}
		if !almost(Exp2{}.At(Log2{}.At(x)), x) {
			t.Errorf("exp2(log2(%v))", x)
		}
	}
}

func TestComposeAndInverse(t *testing.T) {
	p := Linear{Rate: 1, Off: 0}
	q := Linear{Rate: 2, Off: 0}
	h := Compose(Inverse(p), q) // h = p⁻¹∘q = 2t
	for _, x := range []float64{0, 1, 3.5, 100} {
		if !almost(h.At(x), 2*x) {
			t.Errorf("h(%v) = %v, want %v", x, h.At(x), 2*x)
		}
		if !almost(h.Inv(h.At(x)), x) {
			t.Errorf("h inverse round trip at %v", x)
		}
	}
}

func TestIterateComposeLaw(t *testing.T) {
	// f^(m+n) = f^m ∘ f^n for mixed signs, exactly.
	f := NewRatLinear(3, 2, 1, 4) // 1.5t + 0.25
	prop := func(mRaw, nRaw int8) bool {
		m, n := int(mRaw)%5, int(nRaw)%5
		return f.IterateRat(m + n).Cmp(f.IterateRat(m).ComposeRat(f.IterateRat(n)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRatLinearExactness(t *testing.T) {
	q := NewRatLinear(3, 2, 0, 1) // 1.5t
	x := NewQ(4, 3)
	y := q.At(x) // 2
	if y.Cmp(NewQ(2, 1)) != 0 {
		t.Errorf("q(4/3) = %s, want 2", y)
	}
	back := q.Inv(y)
	if back.Cmp(x) != 0 {
		t.Errorf("inverse round trip: %s", back)
	}
}

func TestRatLinearComposeInverse(t *testing.T) {
	p := RatIdentity()
	q := NewRatLinear(3, 2, 1, 4) // 1.5t + 0.25
	h := p.InverseRat().ComposeRat(q)
	if !h.Cmp(q) {
		t.Errorf("p⁻¹∘q = %s, want %s", h, q)
	}
	hh := h.ComposeRat(h.InverseRat())
	if !hh.Cmp(RatIdentity()) {
		t.Errorf("h∘h⁻¹ = %s, want identity", hh)
	}
}

func TestRatLinearIterate(t *testing.T) {
	h := NewRatLinear(2, 1, 0, 1) // 2t
	if got := h.IterateRat(3).At(NewQ(1, 1)); got.Cmp(NewQ(8, 1)) != 0 {
		t.Errorf("h³(1) = %s, want 8", got)
	}
	if got := h.IterateRat(-2).At(NewQ(8, 1)); got.Cmp(NewQ(2, 1)) != 0 {
		t.Errorf("h⁻²(8) = %s, want 2", got)
	}
	if !h.IterateRat(0).Cmp(RatIdentity()) {
		t.Error("h⁰ is not the identity")
	}
	// h^i ∘ h^-i = id, exactly.
	for i := 1; i < 12; i++ {
		if !h.IterateRat(i).ComposeRat(h.IterateRat(-i)).Cmp(RatIdentity()) {
			t.Errorf("h^%d ∘ h^-%d != id", i, i)
		}
	}
}

func TestRatLinearFloat(t *testing.T) {
	f := NewRatLinear(3, 2, -1, 2).Float()
	if f.Rate != 1.5 || f.Off != -0.5 {
		t.Errorf("Float() = %+v", f)
	}
}

func TestFnStrings(t *testing.T) {
	for _, f := range []Fn{Linear{Rate: 2, Off: 1}, Log2{}, Exp2{}, Compose(Log2{}, Linear{Rate: 1, Off: 0}), Inverse(Log2{}), Identity()} {
		if f.String() == "" {
			t.Errorf("%T has empty String()", f)
		}
	}
	if NewRatLinear(1, 2, 3, 4).String() == "" {
		t.Error("RatLinear has empty String()")
	}
}
