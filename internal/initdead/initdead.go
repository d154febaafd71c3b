// Package initdead implements the FLP Section 4 consensus protocol for
// initially-dead processes: n processes, at most t of which fail, and
// every failure happens before the protocol starts (a dead process never
// sends a single message). Fischer, Lynch and Paterson prove this is
// solvable — even with adversarial, unboundedly-delayed message
// delivery — exactly when n > 2t, which makes it the possibility
// baseline sitting right next to this repo's impossibility results: the
// same simulator, the same adversarial delay schedules, but a fault
// family weak enough that consensus survives.
//
// The protocol, restated for the round-based simulator:
//
//  1. Stage 1: every live process broadcasts its (id, input) record.
//     A process waits until it has records from L-1 = n-t-1 other
//     processes; those senders, in arrival order (ties within a round
//     broken by id), become its *predecessors*.
//  2. Stage 2: the process broadcasts its predecessor list, and from
//     then on floods its cumulative knowledge (all stage-1 and stage-2
//     records it has seen) whenever that knowledge grows. Flooded
//     knowledge is a monotone set, so reordered, collided, or
//     re-delivered messages merge idempotently — the property that
//     makes the protocol safe under adversarial asynchrony.
//  3. Decision: consider the directed graph with an edge p -> x for
//     every p in preds(x). A process that knows the predecessor lists
//     of a nonempty *predecessor-closed* set S (x in S implies
//     preds(x) in S) computes the strongly connected components of S
//     and takes the source component (no incoming edges) containing
//     the smallest id. It decides the majority input among that
//     component's members, ties broken by the smallest member's input.
//
// Why deciders agree when n > 2t: every member of a source SCC has all
// L-1 of its predecessors inside the SCC, so any source SCC has at
// least L = n-t members; two disjoint source SCCs would need
// 2(n-t) <= n processes, i.e. n <= 2t. So for n > 2t the source SCC of
// the full predecessor graph is unique — the paper's "initial clique" —
// and because any predecessor-closed S contains every ancestor of its
// members, the source SCC a process computes from its partial
// knowledge IS that unique global one. For n <= 2t the argument (and
// the protocol) breaks: PartitionDelays builds the delay schedule that
// splits the processes into two groups that each decide on their own
// inputs.
//
// All decision inputs are canonically sorted before use, so the
// protocol is deterministic for a fixed (system, delay schedule) pair
// and participates in the run cache via DeviceFingerprint.
package initdead

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"flm/internal/sim"
)

// Rounds returns the simulator round budget under which every live
// process is guaranteed to decide, given that every message delay is at
// most maxDelay extra rounds (0 = synchronous) on a complete graph:
// stage-1 records arrive by round maxDelay+1, so every live process
// fixes predecessors and broadcasts its stage-2 record by then, and
// that broadcast lands everywhere by round 2*maxDelay+2. Two rounds of
// slack cover the decide-after-step boundary.
func Rounds(maxDelay int) int {
	if maxDelay < 0 {
		maxDelay = 0
	}
	return 2*maxDelay + 4
}

// device is one live protocol instance.
type device struct {
	t         int
	self      string
	neighbors []string
	input     string

	s1      map[string]string   // id -> quoted input (stage-1 records)
	s2      map[string][]string // id -> sorted predecessor list (stage-2 records)
	arrived []string            // foreign stage-1 ids in arrival order
	fixed   bool                // predecessors have been fixed
	preds   []string            // own predecessors; empty until fixed
	changed bool                // knowledge grew since the last broadcast

	decided  bool
	decision string
	out      sim.Outbox
}

var _ sim.Device = (*device)(nil)
var _ sim.Fingerprinter = (*device)(nil)

// New returns the honest builder for fault budget t. The instance
// derives n from its neighborhood (the protocol runs on the complete
// graph), so the same builder serves every node.
func New(t int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &device{t: t}
		d.Init(self, neighbors, input)
		return d
	}
}

// DeviceFingerprint identifies the protocol and its only constructor
// parameter; self/neighbors/input are keyed by the execution cache.
func (d *device) DeviceFingerprint() string {
	return fmt.Sprintf("initdead/v1:t=%d", d.t)
}

func (d *device) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = append([]string(nil), neighbors...)
	sort.Strings(d.neighbors)
	d.input = string(input)
	d.s1 = map[string]string{self: strconv.Quote(d.input)}
	d.s2 = map[string][]string{}
	d.changed = true // own stage-1 record is news
}

// n is the process count: the complete graph's neighborhood plus self.
func (d *device) n() int { return len(d.neighbors) + 1 }

func (d *device) Step(round int, inbox sim.Inbox) sim.Outbox {
	// Merge incoming knowledge, senders in port (name) order.
	var newIDs []string
	for _, p := range inbox {
		if p == sim.None {
			continue
		}
		for _, rec := range strings.Split(string(p), ";") {
			id, fresh := d.merge(rec)
			if fresh {
				newIDs = append(newIDs, id)
			}
		}
	}
	// Fix predecessors once L-1 foreign stage-1 records have arrived;
	// ties within this round's batch break by id.
	if !d.fixed {
		sort.Strings(newIDs)
		d.arrived = append(d.arrived, newIDs...)
		if need := d.n() - d.t - 1; len(d.arrived) >= need {
			d.fixed = true
			d.preds = append([]string(nil), d.arrived[:need]...)
			sort.Strings(d.preds)
			d.s2[d.self] = d.preds
			d.changed = true
		}
	}
	if !d.decided {
		d.tryDecide()
	}
	if !d.changed {
		return nil
	}
	d.changed = false
	d.out = sim.Broadcast(d.out, len(d.neighbors), sim.Payload(d.encodeKnowledge()))
	return d.out
}

// merge folds one encoded record into the knowledge sets, reporting the
// id of a freshly-learned foreign stage-1 record (for predecessor
// bookkeeping). Malformed records are ignored: live processes only emit
// well-formed ones, and dead processes emit nothing.
func (d *device) merge(rec string) (id string, freshS1 bool) {
	kind, rest, ok := strings.Cut(rec, "|")
	if !ok {
		return "", false
	}
	id, body, ok := strings.Cut(rest, "|")
	if !ok || id == "" {
		return "", false
	}
	switch kind {
	case "1":
		if _, known := d.s1[id]; !known {
			d.s1[id] = body
			d.changed = true
			if id != d.self {
				return id, true
			}
		}
	case "2":
		if _, known := d.s2[id]; !known {
			var preds []string
			if body != "" {
				preds = strings.Split(body, ",")
			}
			d.s2[id] = preds
			d.changed = true
		}
	}
	return "", false
}

// tryDecide runs the decision rule over current knowledge.
func (d *device) tryDecide() {
	// K: ids whose predecessor list AND input are both known. (Knowledge
	// floods cumulatively, so a known stage-2 record implies the
	// sender's chain carried the stage-1 record too; the guard makes
	// that an invariant rather than an assumption.)
	k := make(map[string][]string, len(d.s2))
	for id, preds := range d.s2 {
		if _, ok := d.s1[id]; ok {
			k[id] = preds
		}
	}
	// Largest predecessor-closed subset: iteratively drop any member
	// with an unknown or excluded predecessor. (The largest closed
	// subset is unique — closure is preserved under union — so removal
	// order cannot affect the result; sorted passes keep the loop
	// visibly deterministic anyway.)
	for {
		removed := false
		for _, id := range sortedKeysOf(k) {
			for _, p := range k[id] {
				if _, in := k[p]; !in {
					delete(k, id)
					removed = true
					break
				}
			}
		}
		if !removed {
			break
		}
	}
	if len(k) == 0 {
		return
	}
	clique := sourceSCC(k)
	// Majority input among clique members; ties go to the smallest
	// member's input. Members are live by construction (only live
	// processes broadcast stage-1 records), so validity is automatic.
	counts := map[string]int{}
	for _, id := range clique {
		counts[unquote(d.s1[id])]++
	}
	best, bestCount := "", -1
	tie := false
	for _, v := range sortedKeysOf(counts) {
		switch {
		case counts[v] > bestCount:
			best, bestCount, tie = v, counts[v], false
		case counts[v] == bestCount:
			tie = true
		}
	}
	if tie {
		best = unquote(d.s1[clique[0]]) // clique is sorted; [0] is smallest id
	}
	d.decided = true
	d.decision = best
}

// sourceSCC computes the strongly connected components of the closed
// predecessor graph k (edges p -> x for p in k[x]) and returns the
// sorted member list of the source component containing the smallest
// id. For n > 2t there is exactly one source component, so the
// tie-break never fires on the possibility side.
func sourceSCC(k map[string][]string) []string {
	ids := make([]string, 0, len(k))
	for id := range k {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	// Successor adjacency (p -> x), deterministic order.
	succ := make([][]int, len(ids))
	for i, id := range ids {
		for _, p := range k[id] {
			succ[idx[p]] = append(succ[idx[p]], i)
		}
	}
	comp := tarjan(len(ids), succ)
	// A component is a source when no edge from another component
	// enters it.
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	isSource := make([]bool, nComp)
	for i := range isSource {
		isSource[i] = true
	}
	for p := range succ {
		for _, x := range succ[p] {
			if comp[p] != comp[x] {
				isSource[comp[x]] = false
			}
		}
	}
	// Pick the source component containing the smallest id; ids is
	// sorted, so the first id in a source component wins.
	for i := range ids {
		if isSource[comp[i]] {
			members := []string{}
			for j, jd := range ids {
				if comp[j] == comp[i] {
					members = append(members, jd)
				}
			}
			return members
		}
	}
	return nil // unreachable: a finite nonempty DAG of SCCs has a source
}

// tarjan assigns SCC indices over the successor adjacency, iteratively
// (no recursion: schedules can chain many processes).
func tarjan(n int, succ [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack, callV, callI []int
	next, nComp := 0, 0
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callV = append(callV[:0], root)
		callI = append(callI[:0], 0)
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callV) > 0 {
			v := callV[len(callV)-1]
			i := callI[len(callI)-1]
			if i < len(succ[v]) {
				callI[len(callI)-1]++
				w := succ[v][i]
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callV = append(callV, w)
					callI = append(callI, 0)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callV = callV[:len(callV)-1]
			callI = callI[:len(callI)-1]
			if len(callV) > 0 {
				parent := callV[len(callV)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}

// encodeKnowledge renders the cumulative knowledge canonically: records
// sorted, so equal knowledge states emit equal payloads (and intern to
// one string in recorded runs).
func (d *device) encodeKnowledge() string {
	recs := make([]string, 0, len(d.s1)+len(d.s2))
	for _, id := range sortedKeysOf(d.s1) {
		recs = append(recs, "1|"+id+"|"+d.s1[id])
	}
	for _, id := range sortedKeysOf(d.s2) {
		recs = append(recs, "2|"+id+"|"+strings.Join(d.s2[id], ","))
	}
	sort.Strings(recs)
	return strings.Join(recs, ";")
}

func (d *device) Snapshot() string {
	status := "listening"
	if d.preds != nil {
		status = "preds[" + strings.Join(d.preds, ",") + "]"
	}
	if d.decided {
		status += " decided=" + strconv.Quote(d.decision)
	}
	return status + " know{" + d.encodeKnowledge() + "}"
}

func (d *device) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}

func unquote(q string) string {
	s, err := strconv.Unquote(q)
	if err != nil {
		return q
	}
	return s
}

func sortedKeysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
