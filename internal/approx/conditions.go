package approx

import (
	"fmt"
	"math"

	"flm/internal/sim"
)

// Outputs collects the decoded real decisions of the given correct nodes,
// failing if any is missing or non-numeric.
func Outputs(run *sim.Run, correct []string) (map[string]float64, error) {
	outs := make(map[string]float64, len(correct))
	for _, name := range correct {
		d, err := run.DecisionOf(name)
		if err != nil {
			return nil, err
		}
		if d.Value == "" {
			return nil, fmt.Errorf("approx: correct node %s never chose a value", name)
		}
		v, err := sim.DecodeReal(d.Value)
		if err != nil {
			return nil, fmt.Errorf("approx: node %s: %w", name, err)
		}
		outs[name] = v
	}
	return outs, nil
}

// InputRange returns the min and max input among the given correct nodes.
func InputRange(run *sim.Run, correct []string) (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, name := range correct {
		u := run.G.MustIndex(name)
		v, err := sim.DecodeReal(string(run.Inputs[u]))
		if err != nil {
			return 0, 0, fmt.Errorf("approx: input of %s: %w", name, err)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi, nil
}

func spread(vals map[string]float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if len(vals) == 0 {
		return 0
	}
	return hi - lo
}

// CheckSimple evaluates the simple approximate agreement conditions on a
// run with the given correct nodes.
func CheckSimple(run *sim.Run, correct []string) sim.Report {
	var rep sim.Report
	outs, err := Outputs(run, correct)
	if err != nil {
		rep.Termination = err
		return rep
	}
	lo, hi, err := InputRange(run, correct)
	if err != nil {
		rep.Termination = err
		return rep
	}
	inSpread, outSpread := hi-lo, spread(outs)
	if inSpread == 0 {
		if outSpread != 0 {
			rep.Agreement = fmt.Errorf("approx: inputs agree but outputs spread %v", outSpread)
		}
	} else if outSpread >= inSpread {
		rep.Agreement = fmt.Errorf("approx: output spread %v not smaller than input spread %v", outSpread, inSpread)
	}
	for _, name := range correct {
		if v := outs[name]; v < lo || v > hi {
			rep.Validity = fmt.Errorf("approx: node %s chose %v outside input range [%v,%v]", name, v, lo, hi)
			break
		}
	}
	return rep
}

// CheckEDG evaluates the (ε,δ,γ)-agreement conditions. The caller is
// responsible for only applying it to runs whose correct inputs are at
// most δ apart (the problem's precondition).
func CheckEDG(run *sim.Run, correct []string, eps, gamma float64) sim.Report {
	var rep sim.Report
	outs, err := Outputs(run, correct)
	if err != nil {
		rep.Termination = err
		return rep
	}
	lo, hi, err := InputRange(run, correct)
	if err != nil {
		rep.Termination = err
		return rep
	}
	const slack = 1e-9 // floating-point tolerance on the closed bounds
	if s := spread(outs); s > eps+slack {
		rep.Agreement = fmt.Errorf("approx: outputs spread %v exceeds eps=%v", s, eps)
	}
	for _, name := range correct {
		if v := outs[name]; v < lo-gamma-slack || v > hi+gamma+slack {
			rep.Validity = fmt.Errorf("approx: node %s chose %v outside [%v,%v]",
				name, v, lo-gamma, hi+gamma)
			break
		}
	}
	return rep
}
