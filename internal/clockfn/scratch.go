package clockfn

import "math/big"

// RatScratch compares big.Rat values without allocating in steady
// state: big.Rat's own Cmp builds two fresh Ints per call, while the
// scratch comparator cross-multiplies into two retained Ints whose
// storage is reused once it has grown to the working operand size. The
// averaging clock devices, whose corrections halve every tick and so
// outgrow int64 within a few dozen ticks, keep their state in big.Rat
// registers and compare through it.
//
// A RatScratch is not safe for concurrent use.
type RatScratch struct {
	x, y big.Int
}

// Cmp compares a and b exactly, returning -1, 0, or +1.
func (s *RatScratch) Cmp(a, b *big.Rat) int {
	s.x.Mul(a.Num(), b.Denom())
	s.y.Mul(b.Num(), a.Denom())
	return s.x.Cmp(&s.y)
}
