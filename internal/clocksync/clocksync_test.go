package clocksync

import (
	"math"
	"math/big"
	"testing"

	"flm/internal/clockfn"
)

func stdParams(alpha float64) Params {
	// p = t, q = 1.5t, l = t, u = t + 4, t' = 4.
	return Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(3, 2, 0, 1),
		L:      clockfn.Linear{Rate: 1, Off: 0},
		U:      clockfn.Linear{Rate: 1, Off: 4},
		Alpha:  alpha,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
}

func triBuilders(b Builder) map[string]Builder {
	return map[string]Builder{"a": b, "b": b, "c": b}
}

func TestChooseK(t *testing.T) {
	params := stdParams(2)
	k, err := params.ChooseK()
	if err != nil {
		t.Fatal(err)
	}
	// Need l(p(4)) + 2k > u(q(4)) = 10, i.e. 4 + 2k > 10, k > 3, and
	// k+2 divisible by 3: k = 4.
	if k != 4 {
		t.Errorf("k = %d, want 4", k)
	}
	tPrime, _ := params.TPrime.Float64()
	if got := params.L.At(params.P.Float().At(tPrime)) + float64(k)*params.Alpha; got <= params.U.At(params.Q.Float().At(tPrime)) {
		t.Errorf("chosen k does not satisfy the bound: %v", got)
	}
}

func TestChooseKValidation(t *testing.T) {
	bad := stdParams(0)
	if _, err := bad.ChooseK(); err == nil {
		t.Error("alpha=0 accepted")
	}
	// p faster than q.
	swapped := stdParams(1)
	swapped.P, swapped.Q = swapped.Q, swapped.P
	if _, err := swapped.ChooseK(); err == nil {
		t.Error("p > q accepted")
	}
}

func TestHComposition(t *testing.T) {
	params := stdParams(1)
	h := params.H() // p⁻¹∘q = 1.5t
	if !h.Cmp(clockfn.NewRatLinear(3, 2, 0, 1)) {
		t.Errorf("h = %s, want 3/2*t", h)
	}
	// h(t) >= t for t >= 0.
	for _, tv := range []int64{0, 1, 7} {
		x := clockfn.NewQ(tv, 1)
		if h.At(x).Cmp(x) < 0 {
			t.Errorf("h(%d) < %d", tv, tv)
		}
	}
}

func TestTheorem8DefeatsEveryDevice(t *testing.T) {
	l := clockfn.Linear{Rate: 1, Off: 0}
	panel := map[string]Builder{
		"trivial":  NewTrivialLower(l),
		"chase":    NewChaseMax(l),
		"midpoint": NewMidpoint(l),
	}
	params := stdParams(1.5)
	for name, builder := range panel {
		t.Run(name, func(t *testing.T) {
			res, err := Theorem8(params, triBuilders(builder))
			if err != nil {
				t.Fatalf("engine error: %v", err)
			}
			if !res.Contradicted() {
				t.Fatalf("device %s survived Theorem 8:\n%s", name, res)
			}
		})
	}
}

// The trivial device synchronizes to exactly l(q)-l(p); every agreement
// link demanding better by alpha must fail, and no envelope violation can
// occur (the trivial clock is inside the envelope by construction).
func TestTheorem8TrivialShape(t *testing.T) {
	params := stdParams(1)
	res, err := Theorem8(params, triBuilders(NewTrivialLower(params.L)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != res.K+1 {
		t.Errorf("trivial device: %d violations, want one agreement per scenario (%d)",
			len(res.Violations), res.K+1)
	}
	for _, v := range res.Violations {
		if v.Condition != "agreement" {
			t.Errorf("trivial device violated %s (%s); only agreement expected", v.Condition, v.Detail)
		}
	}
}

// The chase-the-fastest device keeps adjacent agreement tight, so the
// induction must push it through the upper envelope (the paper's
// "slowest node must run so fast as to violate the upper envelope").
func TestTheorem8ChaseViolatesEnvelope(t *testing.T) {
	params := stdParams(1.5)
	res, err := Theorem8(params, triBuilders(NewChaseMax(params.L)))
	if err != nil {
		t.Fatal(err)
	}
	hasEnvelope := false
	for _, v := range res.Violations {
		if v.Condition == "envelope" {
			hasEnvelope = true
		}
	}
	if !hasEnvelope {
		t.Errorf("chase device produced no envelope violation: %v", res.Violations)
	}
}

func TestTheorem8MonotoneLogicalForChase(t *testing.T) {
	// With the chase device, logical clocks must increase along the ring
	// toward the fast end (node 0 fastest hardware).
	params := stdParams(1.5)
	res, err := Theorem8(params, triBuilders(NewChaseMax(params.L)))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 has the fastest hardware clock; its logical value at t''
	// should be the largest or near it.
	maxVal := res.Logical[0]
	for _, v := range res.Logical {
		if v > maxVal {
			maxVal = v
		}
	}
	if res.Logical[0] < maxVal-1e-6 && res.Logical[1] < maxVal-1e-6 {
		t.Errorf("fast-end logical clocks not maximal: %v", res.Logical)
	}
}

func TestCorollaries(t *testing.T) {
	tPrime := big.NewRat(4, 1)
	tests := []struct {
		name   string
		params Params
	}{
		{"cor12-linear-envelope", Corollary12(3, 2, 1, 0, 1, 4, 1.5, tPrime)},
		{"cor13-rate", Corollary13(3, 2, 1, 0, 1.5, tPrime)},
		{"cor14-offset", Corollary14(2, 1, 1, 0, 1, tPrime)},
		{"cor15-log", Corollary15(4, 1, 2.5, big.NewRat(8, 1))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for devName, builder := range map[string]Builder{
				"trivial": NewTrivialLower(tt.params.L),
				"chase":   NewChaseMax(tt.params.L),
			} {
				res, err := Theorem8(tt.params, triBuilders(builder))
				if err != nil {
					t.Fatalf("%s: engine error: %v", devName, err)
				}
				if !res.Contradicted() {
					t.Fatalf("%s survived %s:\n%s", devName, tt.name, res)
				}
			}
		})
	}
}

func TestTrivialGap(t *testing.T) {
	params := stdParams(1)
	// l(q(t)) - l(p(t)) = 1.5t - t = 0.5t.
	for _, tv := range []float64{0, 2, 10} {
		if got := params.TrivialGap(tv); math.Abs(got-0.5*tv) > 1e-9 {
			t.Errorf("TrivialGap(%v) = %v, want %v", tv, got, 0.5*tv)
		}
	}
	// Corollary 15: the gap is the constant log2(r).
	c15 := Corollary15(4, 1, 2.5, big.NewRat(8, 1))
	for _, tv := range []float64{1, 5, 100} {
		if got := c15.TrivialGap(tv); math.Abs(got-2) > 1e-9 {
			t.Errorf("log-clock gap at t=%v: %v, want 2 = log2(4)", tv, got)
		}
	}
}

func TestFloorsMatchLemma11(t *testing.T) {
	params := stdParams(1.5)
	res, err := Theorem8(params, triBuilders(NewTrivialLower(params.L)))
	if err != nil {
		t.Fatal(err)
	}
	// Floor at node 1 evaluated in frame 0: l(p(t'')) + 0; with
	// l = id, p = id this is t'' itself.
	tSecond, _ := res.TSecond.Float64()
	if math.Abs(res.Floors[1]-tSecond) > 1e-9 {
		t.Errorf("floor[1] = %v, want %v", res.Floors[1], tSecond)
	}
	if len(res.Floors) < res.K+2 {
		t.Fatalf("floors length %d", len(res.Floors))
	}
}

func TestDeviceSnapshots(t *testing.T) {
	l := clockfn.Linear{Rate: 1, Off: 0}
	for name, b := range map[string]Builder{
		"trivial":  NewTrivialLower(l),
		"chase":    NewChaseMax(l),
		"midpoint": NewMidpoint(l),
	} {
		d := b("a", []string{"b", "c"})
		d.Init("a", []string{"b", "c"})
		d.Tick(0, clockfn.Q{}, nil)
		if d.Snapshot() == "" {
			t.Errorf("%s: empty snapshot", name)
		}
		if v := d.Logical(clockfn.NewQ(3, 1)); math.IsNaN(v) {
			t.Errorf("%s: NaN logical clock", name)
		}
	}
}
