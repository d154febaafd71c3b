// Package weak implements the weak Byzantine agreement problem of FLM85
// Section 4 (Lamport's weak Byzantine generals): agreement is as for
// Byzantine agreement, but validity only binds executions in which every
// node is correct and inputs are unanimous. The paper shows the problem
// still needs 3f+1 nodes and 2f+1 connectivity once the Choice condition
// (decide after finite time) and the Bounded-Delay Locality axiom
// (information travels at most one edge per δ) are imposed; the
// synchronous simulator satisfies the latter with δ = one round.
package weak

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/byzantine"
	"flm/internal/sim"
)

// NewViaBA returns a weak agreement device built on EIG Byzantine
// agreement. Full BA validity implies weak validity, so on adequate
// graphs this solves the weak problem outright.
func NewViaBA(f int, peers []string) sim.Builder {
	return byzantine.NewEIG(f, peers)
}

// detectDefault is the natural weak-agreement attempt: broadcast the
// input, echo views, and decide the common value if everything looks
// unanimous and fault-free; on any anomaly (disagreement, silence,
// malformed traffic) fall back to the default value. Its validity is
// easy — anomalies never happen when everyone is correct and unanimous —
// and FLM85 Theorem 2 shows its agreement must be breakable on
// inadequate graphs.
type detectDefault struct {
	self        string
	nbs         []string
	input       string
	anomaly     bool
	views       map[string]string
	decideRound int
	decided     bool
	decision    string
	out         sim.Outbox
	snap        string      // last Snapshot; "" once Init or Step changes the state
	payload     sim.Payload // last broadcast; "" once input, anomaly or views change
}

var _ sim.Device = (*detectDefault)(nil)
var _ sim.Fingerprinter = (*detectDefault)(nil)

// DeviceFingerprint is the constructor identity (the decide round);
// everything else is keyed by the execution cache.
func (d *detectDefault) DeviceFingerprint() string {
	return fmt.Sprintf("weak/detectdefault@%d", d.decideRound)
}

// NewDetectDefault returns a builder for detect-and-default weak
// agreement devices deciding at the given round.
func NewDetectDefault(decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &detectDefault{decideRound: decideRound}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *detectDefault) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = append([]string(nil), neighbors...)
	sort.Strings(d.nbs)
	switch string(input) {
	case "0", "1":
		d.input = string(input)
	default:
		d.input = byzantine.DefaultValue
		d.anomaly = true
	}
	d.views = map[string]string{self: d.input}
	d.snap, d.payload = "", ""
}

func (d *detectDefault) Step(round int, inbox sim.Inbox) sim.Outbox {
	if round > 0 {
		for i, nb := range d.nbs {
			if inbox[i] == sim.None {
				d.flag() // silence is a fault symptom
				continue
			}
			d.ingest(nb, string(inbox[i]))
		}
	}
	// Any disagreement among seen values is an anomaly.
	for _, v := range d.views {
		if v != d.input {
			d.flag()
		}
	}
	if !d.decided && round >= d.decideRound {
		d.decided = true
		d.snap = ""
		if d.anomaly {
			d.decision = byzantine.DefaultValue
		} else {
			d.decision = d.input
		}
	}
	d.out = sim.Broadcast(d.out, len(d.nbs), d.encode())
	return d.out
}

// encode is "value|anomaly" plus the sorted view, so anomaly reports
// propagate. It is built once per change of those: the views settle
// after a round or two, and the device broadcasts every round.
func (d *detectDefault) encode() sim.Payload {
	if d.payload != "" {
		return d.payload
	}
	flag := "ok"
	if d.anomaly {
		flag = "bad"
	}
	keys := make([]string, 0, len(d.views))
	for k := range d.views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+2)
	parts = append(parts, d.input, flag)
	for _, k := range keys {
		parts = append(parts, k+"="+d.views[k])
	}
	d.payload = sim.Payload(strings.Join(parts, "|"))
	return d.payload
}

// flag records an anomaly, dropping the memos only when it is news:
// once set, the bit is re-raised every round a fault shows.
func (d *detectDefault) flag() {
	if !d.anomaly {
		d.anomaly = true
		d.snap, d.payload = "", ""
	}
}

func (d *detectDefault) ingest(sender, s string) {
	parts := strings.Split(s, "|")
	if len(parts) < 2 || (parts[0] != "0" && parts[0] != "1") {
		d.flag()
		return
	}
	if d.views[sender] != parts[0] {
		d.views[sender] = parts[0]
		d.snap, d.payload = "", ""
	}
	if parts[1] == "bad" {
		d.flag()
	} else if parts[1] != "ok" {
		d.flag()
	}
	for _, kv := range parts[2:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			d.flag()
			continue
		}
		subject, v := kv[:eq], kv[eq+1:]
		if v != "0" && v != "1" {
			d.flag()
			continue
		}
		if prev, seen := d.views[subject]; seen && prev != v {
			d.flag() // two different reports about one node
		} else if !seen {
			d.views[subject] = v
			d.snap, d.payload = "", ""
		}
	}
}

// Snapshot encodes the state once per change; repeats return the same
// string.
func (d *detectDefault) Snapshot() string {
	if d.snap != "" {
		return d.snap
	}
	keys := make([]string, 0, len(d.views))
	for k := range d.views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "dd(in=%s,anom=%v,dec=%v:%s)", d.input, d.anomaly, d.decided, d.decision)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, d.views[k])
	}
	d.snap = b.String()
	return d.snap
}

func (d *detectDefault) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}

// Check evaluates weak agreement on a run. allCorrect states whether
// every node of the system is correct (the only case validity binds).
// Termination is the paper's choice condition: every correct node
// decided within the horizon.
func Check(run *sim.Run, correct []string, allCorrect bool) sim.Report {
	var rep sim.Report
	decisions := make(map[string]string, len(correct))
	for _, name := range correct {
		d, err := run.DecisionOf(name)
		if err != nil || d.Value == "" {
			rep.Termination = fmt.Errorf("weak: correct node %s never chose within the horizon", name)
			return rep
		}
		decisions[name] = d.Value
	}
	first := correct[0]
	for _, name := range correct[1:] {
		if decisions[name] != decisions[first] {
			rep.Agreement = fmt.Errorf("weak: %s chose %s but %s chose %s",
				first, decisions[first], name, decisions[name])
			break
		}
	}
	if allCorrect {
		unanimous := true
		var common sim.Input
		for i, name := range correct {
			u := run.G.MustIndex(name)
			if i == 0 {
				common = run.Inputs[u]
			} else if run.Inputs[u] != common {
				unanimous = false
				break
			}
		}
		if unanimous {
			for _, name := range correct {
				if decisions[name] != string(common) {
					rep.Validity = fmt.Errorf("weak: all correct and unanimous on %s but %s chose %s",
						common, name, decisions[name])
					break
				}
			}
		}
	}
	return rep
}
