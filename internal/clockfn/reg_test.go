package clockfn

import (
	"math/big"
	"math/rand"
	"regexp"
	"testing"
)

// plainText is the grammar Reg.SetString reads, written independently
// of the parser: an optionally negative decimal with no leading zero,
// optionally over a positive one.
var plainText = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$`)

// regRat returns x's value as a fresh big.Rat.
func regRat(x *Reg) *big.Rat { return new(big.Rat).Set(x.bigRat(new(big.Rat))) }

// checkReg fails unless x is r in every view: value, canonical form,
// Append against RatString (into an empty and a non-empty buffer), and
// Float64 against big.Rat.Float64.
func checkReg(t *testing.T, op string, x *Reg, r *big.Rat) {
	t.Helper()
	if got := regRat(x); got.Cmp(r) != 0 {
		t.Fatalf("%s: value %s, want %s", op, got.RatString(), r.RatString())
	}
	if x.rat {
		if r.IsInt() || isPow2(r.Denom()) {
			t.Fatalf("%s: dyadic %s held as a big.Rat", op, r.RatString())
		}
	} else if x.e > 0 && x.m.Bit(0) == 0 {
		t.Fatalf("%s: %s held as %s/2^%d, not in lowest terms", op, r.RatString(), x.m.String(), x.e)
	}
	want := r.RatString()
	if got := string(x.Append(nil)); got != want {
		t.Fatalf("%s: Append %q, want %q", op, got, want)
	}
	if got := string(x.Append([]byte("x="))); got != "x="+want {
		t.Fatalf("%s: Append after a prefix %q, want %q", op, got, "x="+want)
	}
	if x.text != "" && x.text != want {
		t.Fatalf("%s: kept text %q, want %q or none", op, x.text, want)
	}
	if got, want := x.Float64(), ratFloat(r); got != want {
		t.Fatalf("%s: Float64 of %s = %v, want %v", op, r.RatString(), got, want)
	}
}

// checkRegOps applies every operation to a and b — into a fresh
// register and into each operand — and checks each result against
// big.Rat's.
func checkRegOps(t *testing.T, a, b *Reg) {
	t.Helper()
	ra, rb := regRat(a), regRat(b)
	name := ra.RatString() + " op " + rb.RatString()
	for _, op := range []struct {
		name string
		reg  func(z, x, y *Reg) *Reg
		rat  func(z, x, y *big.Rat) *big.Rat
	}{
		{"Add", (*Reg).Add, (*big.Rat).Add},
		{"Sub", (*Reg).Sub, (*big.Rat).Sub},
	} {
		want := op.rat(new(big.Rat), ra, rb)
		checkReg(t, op.name+" "+name, op.reg(new(Reg), a, b), want)
		x, y := new(Reg).Set(a), new(Reg).Set(b)
		checkReg(t, op.name+" into x "+name, op.reg(x, x, y), want)
		x, y = new(Reg).Set(a), new(Reg).Set(b)
		checkReg(t, op.name+" into y "+name, op.reg(y, x, y), want)
		x = new(Reg).Set(a)
		checkReg(t, op.name+" x, x "+name, op.reg(x, x, x), op.rat(new(big.Rat), ra, ra))
	}
	half := new(big.Rat).Quo(ra, big.NewRat(2, 1))
	checkReg(t, "Half "+ra.RatString(), new(Reg).Half(a), half)
	x := new(Reg).Set(a)
	checkReg(t, "Half into x "+ra.RatString(), x.Half(x), half)
	if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
		t.Fatalf("Cmp %s: %d, want %d", name, got, want)
	}
	if got, want := b.Cmp(a), rb.Cmp(ra); got != want {
		t.Fatalf("Cmp reversed %s: %d, want %d", name, got, want)
	}
	checkReg(t, "SetQ "+ra.RatString(), new(Reg).SetQ(FromRat(ra)), ra)
	checkReg(t, "Set "+ra.RatString(), new(Reg).Set(a), ra)
}

// parseReg reads s as SetString does and checks it against the plain
// grammar and big.Rat.SetString. SetString is called only on plain
// input, so the oracle never expands an exponent.
func parseReg(t *testing.T, s string) (*Reg, bool) {
	t.Helper()
	z := new(Reg).SetQ(NewQ(-7, 3)) // a value a rejected input must leave alone
	ok := z.SetString(s)
	if plain := plainText.MatchString(s); ok != plain {
		t.Fatalf("SetString(%q) ok = %v, plain form = %v", s, ok, plain)
	}
	if !ok {
		checkReg(t, "rejected "+s, z, big.NewRat(-7, 3))
		return nil, false
	}
	r, rok := new(big.Rat).SetString(s)
	if !rok {
		t.Fatalf("SetString(%q) accepted a plain input big.Rat rejects", s)
	}
	checkReg(t, "SetString("+s+")", z, r)
	if canonical := s == r.RatString(); canonical != (z.text != "") {
		t.Fatalf("SetString(%q): kept text %q, canonical = %v", s, z.text, canonical)
	}
	return z, true
}

// pow2Text is 2^k in decimal.
func pow2Dec(k uint) string { return new(big.Int).Lsh(big.NewInt(1), k).String() }

// regSeeds are canonical dyadics and non-dyadics, unreduced forms,
// values at 2^63, dyadics of 300 digits, values at the edges of float64,
// and forms SetString must reject. tie is 2^100 + 2^47 + 1: cut to 64
// bits it lies exactly halfway between two float64s, and only its last
// bit says to round up.
func regSeeds() []string {
	long := "1" + pow2Dec(990)[1:]
	tie := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 100), new(big.Int).Lsh(big.NewInt(1), 47))
	tie.Add(tie, big.NewInt(1))
	return []string{
		tie.String(), "-" + tie.String() + "/" + pow2Dec(5),
		"0", "1", "-1", "3/2", "-5/4", "1/3", "-22/7", "7/6",
		"6/4", "-0", "0/8", "-0/3", "5/1", "-12/1", "3/6", "10/12",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"1/9223372036854775808", "-3/9223372036854775808", "9223372036854775809/2",
		long, "-" + long + "/" + pow2Dec(700), "3/" + pow2Dec(1000), long + "/3",
		"1/" + pow2Dec(1074), "1/" + pow2Dec(1075), "3/" + pow2Dec(1076), "-1/" + pow2Dec(1022),
		pow2Dec(1023), pow2Dec(1024), "-" + pow2Dec(1100) + "/3", "1/" + pow2Dec(1100),
		"1e999999", "-1e999999", "0x10", "0.5", "+5", "007", "1_0",
		"", "-", "/", "1/", "/2", "1/0", "1/00", "5/-3", "010/3", "1/2/3", " 1", "1 ", "--3",
	}
}

// FuzzReg checks the register against big.Rat on two inputs: the parse
// against the plain grammar and SetString, then every operation on the
// two values. The seeds run in plain go test.
func FuzzReg(f *testing.F) {
	seeds := regSeeds()
	for i, s := range seeds {
		f.Add(s, seeds[(i*7+3)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		x, okx := parseReg(t, a)
		y, oky := parseReg(t, b)
		if okx && oky {
			checkRegOps(t, x, y)
		}
	})
}

// TestRegMatchesBigRat drives registers as an averaging device does —
// add a hardware reading, move halfway toward a neighbor's reading —
// against big.Rat over random sequences, checking every operation on the
// way. Half the sequences take hardware readings of denominator 1 and 2
// only, so they stay dyadic; the others also take denominator 3.
func TestRegMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for seq := 0; seq < 60; seq++ {
		dens := []int64{1, 2, 3}[:2+seq%2]
		randQ := func() Q {
			q := NewQ(rng.Int63n(2001)-1000, dens[rng.Intn(len(dens))])
			if rng.Intn(10) == 0 { // past int64
				q = q.Mul(NewQ(1<<62, 1)).Mul(NewQ(1<<62, 1))
			}
			return q
		}
		var corr, own, hw, reading, adj Reg
		rc := new(big.Rat)
		for tick := 0; tick < 40; tick++ {
			q := randQ()
			rhw := q.Rat(new(big.Rat))
			checkReg(t, "SetQ", hw.SetQ(q), rhw)
			checkRegOps(t, &corr, &hw)
			rown := new(big.Rat).Add(rhw, rc)
			checkReg(t, "own", own.Add(&hw, &corr), rown)
			reading.SetQ(randQ())
			checkRegOps(t, &own, &reading)
			adj.Sub(&reading, &own).Half(&adj)
			radj := new(big.Rat).Sub(regRat(&reading), rown)
			rc.Add(rc, radj.Quo(radj, big.NewRat(2, 1)))
			checkReg(t, "corr", corr.Add(&corr, &adj), rc)
		}
	}
}
