package clockfn

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// qEdges are the int64 parts where inline arithmetic overflows, loses
// float64 exactness, or changes sign.
var qEdges = []int64{
	0, 1, -1, 2, -2, 3, -3, 7, 10, -12,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53), -(1<<53 + 1),
	1 << 62, -(1 << 62), 1<<32 + 1, 3037000499, 3037000500, -3037000500,
	3074457345618258603, // (2⁶³+1)/3: times -3, one past MinInt64
}

// fitsInline reports whether r's reduced parts both fit an int64.
func fitsInline(r *big.Rat) bool { return r.Num().IsInt64() && r.Denom().IsInt64() }

// checkQ fails unless q is r in every view: value, String against
// RatString, canonical form, Float64 against big.Rat.Float64, and the
// Q→big.Rat set, into a fresh register and into one that held another
// value.
func checkQ(t *testing.T, op string, q Q, r *big.Rat) {
	t.Helper()
	if q.rat().Cmp(r) != 0 {
		t.Fatalf("%s: value %s, want %s", op, q.rat().RatString(), r.RatString())
	}
	if got, want := q.String(), r.RatString(); got != want {
		t.Fatalf("%s: String %q, want %q", op, got, want)
	}
	if inl := q.r == nil; inl != fitsInline(r) {
		t.Fatalf("%s: %s held inline = %v, fits int64 = %v", op, r.RatString(), inl, !inl)
	}
	if q.r == nil && (q.num != r.Num().Int64() || q.den() != r.Denom().Int64()) {
		t.Fatalf("%s: inline parts %d/%d, want %s", op, q.num, q.den(), r.RatString())
	}
	if got, want := q.Float64(), ratFloat(r); got != want {
		t.Fatalf("%s: Float64 of %s = %v, want %v", op, r.RatString(), got, want)
	}
	if got := q.Sign(); got != r.Sign() {
		t.Fatalf("%s: Sign %d, want %d", op, got, r.Sign())
	}
	dirty := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(3), 100), big.NewInt(7))
	for _, z := range []*big.Rat{new(big.Rat), dirty} {
		if got := q.Rat(z); got != z || z.Cmp(r) != 0 || z.RatString() != r.RatString() {
			t.Fatalf("%s: Rat set %s, want %s", op, z.RatString(), r.RatString())
		}
		if got, want := new(big.Rat).Add(z, big.NewRat(1, 3)), new(big.Rat).Add(r, big.NewRat(1, 3)); got.Cmp(want) != 0 {
			t.Fatalf("%s: Rat set %s does not add like %s", op, z.RatString(), r.RatString())
		}
	}
}

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

// checkOps applies every binary and unary operation to a and b and
// checks each result against big.Rat's.
func checkOps(t *testing.T, a, b Q) {
	t.Helper()
	ra, rb := a.rat(), b.rat()
	name := a.String() + " op " + b.String()
	checkQ(t, "Add "+name, a.Add(b), new(big.Rat).Add(ra, rb))
	checkQ(t, "Sub "+name, a.Sub(b), new(big.Rat).Sub(ra, rb))
	checkQ(t, "Mul "+name, a.Mul(b), new(big.Rat).Mul(ra, rb))
	if b.Sign() != 0 {
		checkQ(t, "Quo "+name, a.Quo(b), new(big.Rat).Quo(ra, rb))
		checkQ(t, "Inv "+b.String(), b.Inv(), new(big.Rat).Inv(rb))
	}
	checkQ(t, "Neg "+a.String(), a.Neg(), new(big.Rat).Neg(ra))
	if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
		t.Fatalf("Cmp %s: %d, want %d", name, got, want)
	}
}

// TestQMatchesBigRat is the differential property test of Q against
// big.Rat: every pair of fractions over the int64 edges, then random
// operations on small, int64-sized and beyond-int64 values.
func TestQMatchesBigRat(t *testing.T) {
	var vals []Q
	for _, n := range qEdges {
		for _, d := range qEdges {
			if d == 0 {
				continue
			}
			q := NewQ(n, d)
			checkQ(t, "NewQ", q, big.NewRat(n, d))
			vals = append(vals, q)
		}
	}
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(5), 70), big.NewInt(3))
	vals = append(vals, FromRat(huge), FromRat(new(big.Rat).Neg(huge)), FromRat(new(big.Rat).Inv(huge)))
	for i, a := range vals { // every 29th partner spreads each value's partners over the edges
		for j := i % 29; j < len(vals); j += 29 {
			checkOps(t, a, vals[j])
		}
	}

	rng := rand.New(rand.NewSource(1))
	part := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(2001) - 1000
		case 1:
			return qEdges[rng.Intn(len(qEdges))]
		case 2:
			return rng.Int63() - rng.Int63()
		}
		return rng.Int63n(1<<31) - 1<<30
	}
	randQ := func() Q {
		d := part()
		for d == 0 {
			d = part()
		}
		q := NewQ(part(), d)
		if rng.Intn(8) == 0 { // push past int64
			q = q.Mul(NewQ(math.MaxInt64, 1)).Add(NewQ(1, 3))
		}
		return q
	}
	for i := 0; i < 10000; i++ {
		checkOps(t, randQ(), randQ())
	}
}

// TestQFromRatDoesNotRetain: FromRat copies a value that does not fit,
// so mutating the source afterwards cannot reach the Q.
func TestQFromRatDoesNotRetain(t *testing.T) {
	src := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	q := FromRat(src)
	want := src.RatString()
	src.SetInt64(5)
	if q.String() != want {
		t.Fatalf("FromRat value changed with its source: %s, want %s", q, want)
	}
	if FromRat(new(big.Rat)).Cmp(Q{}) != 0 || (Q{}).String() != "0" {
		t.Fatal("the zero big.Rat and the zero Q are not both 0")
	}
}

// FuzzParseQ checks ParseQ against the plain grammar and
// big.Rat.SetString: it reads s exactly when s is plain and SetString
// accepts it, to SetString's value. The seeds are the forms SetString
// reads unexpectedly, which ParseQ must reject; they run in plain go
// test.
func FuzzParseQ(f *testing.F) {
	for _, s := range []string{
		"010/3", "0x10", "1e3", "1.5", "+5", "1_000", "3/0", "-0",
		"1234567890123456789", "-1234567890123456789/10", "123456789012345678",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"1/9223372036854775808", "0/7", "-0/7", "00", "007", "0b101/0o7", "5/-3",
		"", "-", "/", "1/", "/2", "-6/4", "1e400", "0x1p-3", " 1", "1 ", "1/2/3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, ok := ParseQ(s)
		plain := plainText.MatchString(s)
		var r *big.Rat
		rok := false
		if plain { // so the oracle never expands an exponent
			r, rok = new(big.Rat).SetString(s)
		}
		if ok != (plain && rok) {
			t.Fatalf("ParseQ(%q) ok = %v, plain form = %v, SetString ok = %v", s, ok, plain, rok)
		}
		if ok {
			checkQ(t, "ParseQ("+s+")", q, r)
		}
	})
}
