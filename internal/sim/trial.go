package sim

import "flm/internal/graph"

// Trial is one honest-versus-faulty execution, the possibility side's
// counterpart of a covering system: every node of G runs Honest except
// the nodes of Faulty, which run their own builders (the Fault axiom's
// arbitrary behavior), on Inputs for Rounds rounds. Names in Faulty
// that are not nodes of G are ignored.
type Trial struct {
	G      *graph.Graph
	Inputs map[string]Input
	Honest Builder
	Faulty map[string]Builder
	Rounds int
}

// Run builds the trial's system and executes it under opts. It returns
// the run and the correct nodes, every node not in Faulty, in index
// order. Inputs is handed to NewSystem as it is, so it must hold an
// input for every node, and it may be shared by concurrent trials.
func (t Trial) Run(opts ExecuteOpts) (*Run, []string, error) {
	builders := make(map[string]Builder, t.G.N())
	var correct []string
	for u := 0; u < t.G.N(); u++ {
		name := t.G.Name(u)
		if b, bad := t.Faulty[name]; bad {
			builders[name] = b
		} else {
			builders[name] = t.Honest
			correct = append(correct, name)
		}
	}
	sys, err := NewSystem(t.G, Protocol{Builders: builders, Inputs: t.Inputs})
	if err != nil {
		return nil, nil, err
	}
	run, err := ExecuteWith(sys, t.Rounds, opts)
	if err != nil {
		return nil, nil, err
	}
	return run, correct, nil
}

// Report records which correctness conditions of a problem a run
// satisfies among its correct nodes; a nil field means the condition
// holds. Every problem's checker fills the three in its own sense:
// weak agreement's termination is the paper's "choice", and the firing
// squad, which has none, leaves Termination nil.
type Report struct {
	Termination error // every correct node decided
	Agreement   error // the correct decisions agree
	Validity    error // the decisions are consistent with the inputs
}

// OK reports whether every condition holds.
func (r Report) OK() bool { return r.Termination == nil && r.Agreement == nil && r.Validity == nil }

// Err returns the first violated condition, in field order, or nil.
func (r Report) Err() error {
	switch {
	case r.Termination != nil:
		return r.Termination
	case r.Agreement != nil:
		return r.Agreement
	default:
		return r.Validity
	}
}
