package byzantine

import (
	"fmt"

	"flm/internal/sim"
)

// CheckBA evaluates the Byzantine agreement conditions on a run with the
// given correct nodes (every other node is presumed faulty and ignored).
func CheckBA(run *sim.Run, correct []string) sim.Report {
	var rep sim.Report
	decisions := make(map[string]string, len(correct))
	for _, name := range correct {
		d, err := run.DecisionOf(name)
		if err != nil {
			rep.Termination = err
			return rep
		}
		if d.Value == "" {
			rep.Termination = fmt.Errorf("byzantine: correct node %s never decided", name)
			return rep
		}
		decisions[name] = d.Value
	}
	first := correct[0]
	for _, name := range correct[1:] {
		if decisions[name] != decisions[first] {
			rep.Agreement = fmt.Errorf("byzantine: agreement violated: %s chose %s but %s chose %s",
				first, decisions[first], name, decisions[name])
			break
		}
	}
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
				rep.Validity = fmt.Errorf("byzantine: validity violated: unanimous input %s but %s chose %s",
					common, name, decisions[name])
				break
			}
		}
	}
	return rep
}

// Trial is one agreement execution: a sim.Trial whose runs are judged
// by the Byzantine agreement conditions.
type Trial sim.Trial

// Run executes the trial with full recording and checks the agreement
// conditions over the non-faulty nodes. It returns the run, the
// correct-node list, and the condition report.
func (t Trial) Run() (*sim.Run, []string, sim.Report, error) {
	return t.RunWith(sim.FullRecording)
}

// RunWith executes the trial with explicit recording options. Sweeps that
// only inspect decisions (attack panels, tightness censuses) pass the
// zero ExecuteOpts for the allocation-lean fast path; anything that feeds
// the run into stats, traces, or the axiom machinery needs
// sim.FullRecording.
func (t Trial) RunWith(opts sim.ExecuteOpts) (*sim.Run, []string, sim.Report, error) {
	run, correct, err := sim.Trial(t).Run(opts)
	if err != nil {
		return nil, nil, sim.Report{}, err
	}
	return run, correct, CheckBA(run, correct), nil
}
