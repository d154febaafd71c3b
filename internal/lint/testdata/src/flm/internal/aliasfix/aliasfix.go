// Package aliasfix exercises flmalias: Step/Tick implementations must
// not retain executor-owned buffers past the call.
package aliasfix

import "math/big"

type Message struct {
	From    string
	Payload string
	SentAt  *big.Rat
}

type Send struct{ To, Payload string }

var sink []string

type keeper struct {
	saved []string
	heard []string
}

func (k *keeper) Step(round int, inbox []string) []string {
	k.saved = inbox  // want `keeper\.Step retains the executor-owned inbox slice`
	sink = inbox[1:] // want `keeper\.Step retains the executor-owned inbox slice`
	tmp := inbox
	k.saved = tmp // want `inbox slice \(via local alias\)`
	for _, p := range inbox {
		k.heard = append(k.heard, p) // append copies the string: ok
	}
	k.heard = append(k.heard[:0], inbox...) // so does appending the slice
	v := inbox[0]                           // a string value cannot alias the slice: ok
	_ = v
	return nil
}

type ticker struct {
	frozen []Message
	first  *Message
	hw     *big.Rat
	bodies []string
	out    []Send
}

func (t *ticker) Tick(k int, hw *big.Rat, inbox []Message) []Send {
	t.frozen = inbox     // want `ticker\.Tick retains the executor-owned inbox slice`
	t.frozen = inbox[1:] // want `inbox slice`
	t.first = &inbox[0]  // want `inbox slice`
	t.hw = hw            // want `scratch register`

	// Copies launder ownership: none of these are findings.
	t.bodies = t.bodies[:0]
	for _, m := range inbox {
		t.bodies = append(t.bodies, m.Payload)
	}
	rat := new(big.Rat).Set(hw) // the call breaks the alias chain
	_ = rat
	_ = inbox // blank assignment does not escape
	t.out = t.out[:0]
	return t.out
}
