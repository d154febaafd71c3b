package weak

import (
	"fmt"
	"math/big"
	"sort"

	"flm/internal/graph"
	"flm/internal/sim"
)

// This file mechanizes footnote 4 of FLM85: if transmission delays are
// not bounded away from zero (senders may specify arbitrarily small
// delays), weak consensus is solvable with ANY number of faults — which
// is why Theorem 2 needs the Bounded-Delay Locality axiom.
//
// The footnote's algorithm: nodes start at time 0 and decide at time 1.
// Everyone broadcasts its value at time 0, specifying arrival at 1/2. A
// node first detecting disagreement or failure at time t broadcasts
// "failure detected, choose the default", specifying arrival at (1+t)/2 —
// still before 1. At time 1 a node chooses the default if it ever saw an
// anomaly, and its own (= the common) value otherwise.
//
// ZeroDelayRun executes this algorithm against a scripted adversary. The
// MinDelay parameter introduces the paper's realistic assumption: every
// message arrives at least MinDelay after it is sent. With MinDelay = 0
// the algorithm is correct against every adversary; with MinDelay > 0 a
// late equivocation leaves no time to warn the others, and agreement
// breaks — mechanically demonstrating why the axiom is necessary.

// ZDMessage is one adversary transmission: a value or failure claim
// arriving at a chosen time.
type ZDMessage struct {
	To      string
	Value   string   // "" for a failure-notice message
	Failure bool     // true: "failure detected, choose default"
	Arrive  *big.Rat // requested arrival time (subject to MinDelay)
}

// ZDStrategy scripts a faulty node: given its name and neighbors, it
// returns all transmissions it will ever make. Arrival times are
// clamped upward by the run's MinDelay (a message "sent at time 0"
// cannot arrive before MinDelay; failure relays sent at time t cannot
// arrive before t+MinDelay).
type ZDStrategy func(self string, neighbors []string) []ZDMessage

// ZDResult records the outcome of a zero-delay run.
type ZDResult struct {
	Decisions map[string]string // per correct node
	Anomaly   map[string]bool   // which correct nodes detected anomalies
}

type zdEvent struct {
	at      *big.Rat
	to      string
	from    string
	value   string
	failure bool
	audit   bool // the node's silence check, just after values were due
}

// ZeroDelayRun executes footnote 4's algorithm on a complete graph with
// the given Boolean inputs, scripted faulty nodes, and minimum delay
// (zero for the footnote's idealized network).
func ZeroDelayRun(g *graph.Graph, inputs map[string]string, faulty map[string]ZDStrategy, minDelay *big.Rat) (*ZDResult, error) {
	if minDelay == nil || minDelay.Sign() < 0 {
		return nil, fmt.Errorf("weak: minimum delay must be a non-negative rational")
	}
	one := big.NewRat(1, 1)
	half := big.NewRat(1, 2)

	correct := make(map[string]bool, g.N())
	for _, name := range g.Names() {
		if _, bad := faulty[name]; !bad {
			if v := inputs[name]; v != "0" && v != "1" {
				return nil, fmt.Errorf("weak: node %s lacks a boolean input", name)
			}
			correct[name] = true
		}
	}

	var events []zdEvent
	clampedArrival := func(sentAt, requested *big.Rat) *big.Rat {
		earliest := new(big.Rat).Add(sentAt, minDelay)
		if requested.Cmp(earliest) < 0 {
			return earliest
		}
		return new(big.Rat).Set(requested)
	}
	// Correct nodes broadcast their value at time 0 to arrive at 1/2.
	zero := new(big.Rat)
	for _, name := range g.Names() {
		if !correct[name] {
			continue
		}
		u := g.MustIndex(name)
		for _, v := range g.Neighbors(u) {
			events = append(events, zdEvent{
				at: clampedArrival(zero, half), to: g.Name(v), from: name, value: inputs[name],
			})
		}
	}
	// Faulty scripts (sent "at time 0" for value messages, or treated as
	// sent MinDelay before the requested arrival for failure notices,
	// whichever is later — the adversary controls its own send times, so
	// only the non-negativity of delay binds it).
	for name, strat := range faulty {
		u := g.MustIndex(name)
		allowed := map[string]bool{}
		var nbs []string
		for _, v := range g.Neighbors(u) {
			allowed[g.Name(v)] = true
			nbs = append(nbs, g.Name(v))
		}
		sort.Strings(nbs)
		for _, m := range strat(name, nbs) {
			if !allowed[m.To] {
				return nil, fmt.Errorf("weak: faulty %s scripts a message to non-neighbor %s", name, m.To)
			}
			if m.Arrive == nil || m.Arrive.Sign() < 0 {
				return nil, fmt.Errorf("weak: faulty %s scripts a message with no arrival time", name)
			}
			arrive := m.Arrive
			if arrive.Cmp(minDelay) < 0 {
				arrive = minDelay // cannot beat the minimum delay from time 0
			}
			events = append(events, zdEvent{
				at: new(big.Rat).Set(arrive), to: m.To, from: name, value: m.Value, failure: m.Failure,
			})
		}
	}

	// Values are due at max(1/2, minDelay); silence is detectable right
	// after that instant, leaving time to warn everyone (that is the
	// footnote's point — and what a positive minimum delay destroys for
	// anomalies that surface later).
	auditAt := new(big.Rat).Set(half)
	if minDelay.Cmp(auditAt) > 0 {
		auditAt.Set(minDelay)
	}
	auditAt.Add(auditAt, big.NewRat(1, 16))
	for name := range correct {
		events = append(events, zdEvent{at: new(big.Rat).Set(auditAt), to: name, audit: true})
	}

	anomaly := make(map[string]bool, len(correct))
	relayed := make(map[string]bool, len(correct))
	heard := make(map[string]map[string]string, len(correct)) // node -> sender -> value
	for name := range correct {
		heard[name] = map[string]string{}
	}

	// detect triggers a node's first anomaly at time t: it relays the
	// failure notice to everyone, arriving at (1+t)/2 (clamped by the
	// minimum delay).
	var detect func(name string, t *big.Rat)
	detect = func(name string, t *big.Rat) {
		if anomaly[name] {
			return
		}
		anomaly[name] = true
		if relayed[name] {
			return
		}
		relayed[name] = true
		arrival := new(big.Rat).Add(one, t)
		arrival.Quo(arrival, big.NewRat(2, 1))
		u := g.MustIndex(name)
		for _, v := range g.Neighbors(u) {
			events = append(events, zdEvent{
				at: clampedArrival(t, arrival), to: g.Name(v), from: name, failure: true,
			})
		}
	}

	// Process deliveries in time order until the decision instant. The
	// event list grows as relays are scheduled; a simple re-sort per
	// step keeps the logic obvious (event counts are tiny).
	processed := 0
	for {
		sort.SliceStable(events[processed:], func(i, j int) bool {
			a, b := events[processed+i], events[processed+j]
			if c := a.at.Cmp(b.at); c != 0 {
				return c < 0
			}
			if a.to != b.to {
				return a.to < b.to
			}
			return a.from < b.from
		})
		if processed >= len(events) {
			break
		}
		e := events[processed]
		processed++
		if e.at.Cmp(one) >= 0 {
			continue // arrives at or after the decision instant: too late
		}
		if !correct[e.to] {
			continue
		}
		switch {
		case e.audit:
			// Every neighbor's value was due by now; silence is a fault.
			u := g.MustIndex(e.to)
			for _, v := range g.Neighbors(u) {
				if _, ok := heard[e.to][g.Name(v)]; !ok {
					detect(e.to, e.at)
					break
				}
			}
		case e.failure:
			detect(e.to, e.at)
		default:
			if e.value != "0" && e.value != "1" {
				detect(e.to, e.at) // malformed traffic is a fault symptom
				continue
			}
			heard[e.to][e.from] = e.value
			if e.value != inputs[e.to] {
				detect(e.to, e.at) // disagreement
			}
		}
	}

	res := &ZDResult{Decisions: map[string]string{}, Anomaly: map[string]bool{}}
	for name := range correct {
		res.Anomaly[name] = anomaly[name]
		if anomaly[name] {
			res.Decisions[name] = "0" // the default
		} else {
			res.Decisions[name] = inputs[name]
		}
	}
	return res, nil
}

// CheckZD evaluates weak agreement on a zero-delay result.
func CheckZD(res *ZDResult, inputs map[string]string, allCorrect bool) sim.Report {
	var rep sim.Report
	var names []string
	for name := range res.Decisions {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return rep
	}
	first := res.Decisions[names[0]]
	for _, name := range names[1:] {
		if res.Decisions[name] != first {
			rep.Agreement = fmt.Errorf("weak: %s chose %s but %s chose %s",
				names[0], first, name, res.Decisions[name])
			break
		}
	}
	if allCorrect {
		unanimous := true
		for _, name := range names[1:] {
			if inputs[name] != inputs[names[0]] {
				unanimous = false
			}
		}
		if unanimous {
			for _, name := range names {
				if res.Decisions[name] != inputs[name] {
					rep.Validity = fmt.Errorf("weak: unanimous all-correct input %s but %s chose %s",
						inputs[name], name, res.Decisions[name])
					break
				}
			}
		}
	}
	return rep
}
