package sim

import (
	"hash/fnv"
	"slices"
	"strings"

	"flm/internal/graph"
)

// Adversarial asynchrony. The base model is synchronous: a message sent
// in round r is delivered in round r+1. A DelaySchedule weakens that
// guarantee adversarially: selected messages are held back extra rounds,
// chosen by the adversary as a function of (sender, receiver, send
// round). The schedule is a finite, explicit rule list, which is what
// makes it a first-class attack artifact: it can be fingerprinted into
// the run cache key, replayed bit for bit from a seed, and shrunk to a
// 1-minimal asynchrony counterexample by the chaos machinery.
//
// Semantics, fixed so async runs stay deterministic at any worker count:
//
//   - a message sent in round r on an edge matching rule (From,To,Round)
//     is delivered in round r+1+Extra instead of r+1;
//   - a delivery landing at or past the round horizon is never read —
//     within a finite execution, "delayed past the end" and "lost in
//     transit" are the same observable event, which is exactly how a
//     finite run models unbounded asynchrony;
//   - when two payloads from the same sender to the same receiver
//     collapse onto the same delivery round, the latest-sent one wins
//     (channels reorder but never duplicate); protocols that tolerate
//     asynchrony must carry cumulative state, not per-round deltas.
//
// Async runs are NOT inputs for CheckLocality or the splice engine: the
// Locality axiom's "inbox r+1 equals sends r" identity is precisely what
// a delay schedule breaks. Asynchrony lives on the possibility/chaos
// side of the reproduction (the FLP Section 4 baseline and E19/E20).

// DelayRule holds back the message sent from From to To in round Round
// by Extra additional rounds beyond the synchronous single-round
// delivery. Extra <= 0 rules are inert.
type DelayRule struct {
	From, To string
	Round    int
	Extra    int
}

// DelaySchedule is an explicit adversarial asynchrony schedule. The nil
// schedule (and the empty one) is the synchronous model. Rules are
// applied last-writer-wins when several name the same (From,To,Round)
// triple; canonical schedules keep Rules sorted and duplicate-free so
// equal schedules hash equally.
type DelaySchedule struct {
	Rules []DelayRule
}

// delaySlot addresses one message of a compiled schedule: the
// executor's outedge slot it leaves on and its send round.
type delaySlot struct {
	edge, round int
}

// compile resolves the rule list against the executor's port tables
// (ports[u] lists u's neighbors in port order, and u's outedges are the
// slots off[u]..off[u+1]-1) into a lookup table plus the largest extra
// delay (the executor's ring-buffer window). Inert rules are dropped, and
// so are rules naming no edge of g, which no send can match.
func (s *DelaySchedule) compile(g *graph.Graph, ports [][]int, off []int) (map[delaySlot]int, int) {
	if s.Empty() {
		return nil, 0
	}
	table := make(map[delaySlot]int, len(s.Rules))
	maxExtra := 0
	for _, r := range s.Rules {
		if r.Extra <= 0 {
			continue
		}
		maxExtra = max(maxExtra, r.Extra)
		u, ok := g.Index(r.From)
		if !ok {
			continue
		}
		i, found := slices.BinarySearchFunc(ports[u], r.To, func(v int, to string) int {
			return strings.Compare(g.Name(v), to)
		})
		if found {
			table[delaySlot{edge: off[u] + i, round: r.Round}] = r.Extra
		}
	}
	return table, maxExtra
}

// MaxExtra returns the largest effective delay in the schedule (0 for
// nil/empty/inert schedules).
func (s *DelaySchedule) MaxExtra() int {
	max := 0
	if s == nil {
		return 0
	}
	for _, r := range s.Rules {
		if r.Extra > max {
			max = r.Extra
		}
	}
	return max
}

// Empty reports whether the schedule has no effective rule.
func (s *DelaySchedule) Empty() bool {
	if s == nil {
		return true
	}
	for _, r := range s.Rules {
		if r.Extra > 0 {
			return false
		}
	}
	return true
}

// SeededDelays derives a full adversary-controlled delay function of
// (sender, receiver, round, seed) and materializes it as an explicit
// rule list over the given node names and round horizon: every directed
// pair and round gets extra delay hash(seed, from, to, round) mod
// (maxExtra+1). The result is a pure function of its arguments — the
// same seed reproduces the same asynchrony on any machine and worker
// count — and, being explicit rules, it shrinks like any other
// schedule.
func SeededDelays(seed int64, names []string, rounds, maxExtra int) *DelaySchedule {
	if maxExtra <= 0 || rounds <= 0 {
		return &DelaySchedule{}
	}
	s := &DelaySchedule{}
	for _, from := range names {
		for _, to := range names {
			if from == to {
				continue
			}
			for r := 0; r < rounds; r++ {
				extra := int(seededExtra(seed, from, to, r) % uint64(maxExtra+1))
				if extra > 0 {
					s.Rules = append(s.Rules, DelayRule{From: from, To: to, Round: r, Extra: extra})
				}
			}
		}
	}
	return s
}

// seededExtra is the raw adversary hash: a stable FNV-1a mix of the
// seed and the message coordinates.
func seededExtra(seed int64, from, to string, round int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := uint64(seed)
	for i := range buf {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	h.Write([]byte{0})
	u = uint64(int64(round))
	for i := range buf {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}
