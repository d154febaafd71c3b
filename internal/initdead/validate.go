package initdead

import (
	"fmt"
	"sort"

	"flm/internal/sim"
)

// Check evaluates the initially-dead consensus conditions on a run with
// the given live nodes (every other node is presumed dead and ignored).
// Validity here is strong: the decided value must be the input of some
// live node — the protocol's clique members are live by construction —
// which subsumes the unanimity form.
func Check(run *sim.Run, live []string) sim.Report {
	var rep sim.Report
	if len(live) == 0 {
		rep.Termination = fmt.Errorf("initdead: no live nodes to check")
		return rep
	}
	decisions := make(map[string]string, len(live))
	for _, name := range live {
		d, err := run.DecisionOf(name)
		if err != nil {
			rep.Termination = err
			return rep
		}
		if d.Value == "" {
			rep.Termination = fmt.Errorf("initdead: live node %s never decided", name)
			return rep
		}
		decisions[name] = d.Value
	}
	first := live[0]
	for _, name := range live[1:] {
		if decisions[name] != decisions[first] {
			rep.Agreement = fmt.Errorf("initdead: agreement violated: %s chose %q but %s chose %q",
				first, decisions[first], name, decisions[name])
			break
		}
	}
	liveInputs := make(map[string]bool, len(live))
	for _, name := range live {
		liveInputs[string(run.Inputs[run.G.MustIndex(name)])] = true
	}
	for _, name := range live {
		if !liveInputs[decisions[name]] {
			rep.Validity = fmt.Errorf("initdead: validity violated: %s chose %q, not any live input",
				name, decisions[name])
			break
		}
	}
	return rep
}

// PartitionDelays is the impossibility witness for n <= 2t: a delay
// schedule that splits the sorted node names into two groups — the
// first n-t names and the remaining t — and delays every cross-group
// message past the round horizon (equivalently, forever: within a
// finite run the two are the same observable). With n <= 2t each group
// still gathers the n-t-1 foreign stage-1 records the protocol waits
// for from inside its own group, so each group forms its own source
// component and decides on its own inputs; give the groups different
// inputs and the run disagrees. For n > 2t the smaller group cannot
// proceed alone (t-1 < n-t-1) and the schedule merely delays nothing
// fatally — the unique-clique argument stands.
func PartitionDelays(names []string, t, rounds int) *sim.DelaySchedule {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	cut := len(sorted) - t
	if cut < 0 {
		cut = 0
	}
	groupB := make(map[string]bool, t)
	for _, name := range sorted[cut:] {
		groupB[name] = true
	}
	s := &sim.DelaySchedule{}
	for _, from := range sorted {
		for _, to := range sorted {
			if from == to || groupB[from] == groupB[to] {
				continue
			}
			for r := 0; r < rounds; r++ {
				s.Rules = append(s.Rules, sim.DelayRule{From: from, To: to, Round: r, Extra: rounds})
			}
		}
	}
	return s
}
