package core

import (
	"context"
	"fmt"
	"strings"

	"flm/internal/approx"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/sim"
	"flm/internal/weak"
)

// Violation records one broken correctness condition in one constructed
// behavior of G.
type Violation struct {
	Link      string // which behavior in the chain, e.g. "E2"
	Condition string // "termination", "agreement", "validity", "envelope", ...
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s violated: %s", v.Link, v.Condition, v.Detail)
}

// Link is one constructed correct behavior of G in a contradiction chain,
// together with what the paper's argument expects of it.
type Link struct {
	Name    string   // E1, E2, ...
	Splice  *Splice  // the constructed run of G
	Expect  string   // human-readable statement of the forced conclusion
	Correct []string // G-names of correct nodes
	Faulty  []string // G-names of faulty nodes
}

// addLink appends one constructed behavior to the contradiction chain
// and, under tracing, emits a "core.chain.link" span describing the
// chain's structure: the theorem, the link's name and depth, its correct
// and faulty G-sets, the spliced S-subset, and the correct nodes shared
// with the previous link — the overlap the paper's argument rides on
// (E2 inherits c's behavior from E1 and donates a's to E3). Debugging a
// failed chain starts from exactly this record.
func (cr *ChainResult) addLink(l Link) {
	if obs.Enabled() {
		_, span := obs.StartSpan(context.Background(), "core.chain.link",
			obs.Str("theorem", cr.Theorem),
			obs.Str("link", l.Name),
			obs.Int("depth", len(cr.Links)+1),
			obs.Str("correct", strings.Join(l.Correct, ",")),
			obs.Str("faulty", strings.Join(l.Faulty, ",")))
		if l.Splice != nil {
			span.SetAttrs(obs.Str("spliced", strings.Join(l.Splice.UNodes, ",")))
		}
		if n := len(cr.Links); n > 0 {
			span.SetAttrs(obs.Str("shared_correct",
				strings.Join(intersect(cr.Links[n-1].Correct, l.Correct), ",")))
		}
		span.End()
	}
	cr.Links = append(cr.Links, l)
}

// intersect returns the names present in both sorted-or-not slices, in
// a's order. Chains are three to a few dozen links of at most a handful
// of nodes, so the quadratic scan is irrelevant.
func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// ChainResult is the outcome of running an impossibility argument against
// concrete devices: the covering run, the chain of spliced behaviors, and
// the violations found. The theorem guarantees Violations is non-empty;
// an empty list is reported as an engine error by the chain runner.
type ChainResult struct {
	Theorem    string // "Theorem 1 (nodes)", ...
	Problem    string // "Byzantine agreement", ...
	Device     string // description of the devices under test
	F          int    // fault bound
	G          *graph.Graph
	CoverSize  int
	RunS       *sim.Run
	Links      []Link
	Violations []Violation
}

// Contradicted reports whether the engine found at least one violated
// condition — i.e. the devices failed, as the theorem requires.
func (cr *ChainResult) Contradicted() bool { return len(cr.Violations) > 0 }

// String renders the chain in the style of the paper's argument.
func (cr *ChainResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s, f=%d, |G|=%d (inadequate), covering |S|=%d\n",
		cr.Theorem, cr.Problem, cr.F, cr.G.N(), cr.CoverSize)
	fmt.Fprintf(&b, "devices: %s\n", cr.Device)
	for _, link := range cr.Links {
		fmt.Fprintf(&b, "  %s: correct {%s}, faulty {%s} — expect %s\n",
			link.Name, strings.Join(link.Correct, ","), strings.Join(link.Faulty, ","), link.Expect)
	}
	if len(cr.Violations) == 0 {
		b.WriteString("  NO VIOLATION FOUND (engine error)\n")
	}
	for _, v := range cr.Violations {
		fmt.Fprintf(&b, "  ** %s\n", v)
	}
	return b.String()
}

// plan is one impossibility argument as data: the covering system to
// run and the scenarios to splice out of its run, in link order. Each
// exported driver builds a plan; run executes it.
type plan struct {
	cover     *graph.Cover
	inputs    map[string]sim.Input      // by S-node name
	rounds    int                       // of the covering run and every splice
	selfCheck func(runS *sim.Run) error // optional, on the covering run
	scenarios []scenario
}

// scenario is one link of a chain: the S-subset spliced into a behavior
// of G, what the paper's argument expects of it, and the problem's
// check of that behavior.
type scenario struct {
	link   string
	u      []int
	expect string
	check  check
}

// check evaluates a problem's conditions on the correct nodes of one
// behavior of G and returns the broken ones in the problem's order,
// with Link left for the runner to fill in.
type check func(run *sim.Run, correct []string) []Violation

// run is the one move every proof makes. It installs the devices on
// the plan's cover, executes S and runs the plan's self-check; then it
// splices each scenario into a behavior of G by the Locality and Fault
// axioms, appends it as a link, and appends the link's violations. A
// link with more than f faulty nodes lies outside the fault model, and
// a chain with no violation contradicts the theorem: both are engine
// errors.
func (cr *ChainResult) run(p plan, builders map[string]sim.Builder) (*ChainResult, error) {
	inst, err := InstallCover(p.cover, builders, p.inputs)
	if err != nil {
		return nil, err
	}
	runS, err := inst.Execute(p.rounds)
	if err != nil {
		return nil, err
	}
	cr.CoverSize, cr.RunS = p.cover.S.N(), runS
	if p.selfCheck != nil {
		if err := p.selfCheck(runS); err != nil {
			return nil, err
		}
	}
	for _, sc := range p.scenarios {
		sp, err := SpliceScenario(inst, runS, sc.u, builders)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", sc.link, err)
		}
		if len(sp.Faulty) > cr.F {
			return nil, fmt.Errorf("core: %s has %d faulty nodes, more than f=%d", sc.link, len(sp.Faulty), cr.F)
		}
		cr.addLink(Link{Name: sc.link, Splice: sp, Expect: sc.expect, Correct: sp.Correct, Faulty: sp.Faulty})
		cr.addViolations(sc.link, sc.check(sp.Run, sp.Correct))
	}
	if !cr.Contradicted() {
		return cr, fmt.Errorf("core: no condition violated in %d links — impossible (engine or device-determinism bug):\n%s", len(cr.Links), cr)
	}
	return cr, nil
}

// addViolations appends a link's broken conditions to the chain.
func (cr *ChainResult) addViolations(link string, vs []Violation) {
	for _, v := range vs {
		v.Link = link
		cr.Violations = append(cr.Violations, v)
	}
}

// broken lists, in order, the conditions rep reports violated;
// termination names its first condition (weak agreement calls it
// choice).
func broken(rep sim.Report, termination string) []Violation {
	var vs []Violation
	for _, c := range []struct {
		name string
		err  error
	}{{termination, rep.Termination}, {"agreement", rep.Agreement}, {"validity", rep.Validity}} {
		if c.err != nil {
			vs = append(vs, Violation{Condition: c.name, Detail: c.err.Error()})
		}
	}
	return vs
}

// baCheck is Byzantine agreement: every correct node decides
// (termination), all on one value (agreement), and on want where
// validity forces a value ("" where it forces none).
func baCheck(want string) check {
	return func(run *sim.Run, correct []string) []Violation {
		var vs []Violation
		decided := map[string]string{}
		for _, name := range correct {
			d, err := run.DecisionOf(name)
			if err != nil || d.Value == "" {
				vs = append(vs, Violation{Condition: "termination",
					Detail: fmt.Sprintf("correct node %s never decided", name)})
				continue
			}
			decided[name] = d.Value
		}
		first := ""
		for _, name := range correct {
			v, ok := decided[name]
			if ok && first == "" {
				first = v
			} else if ok && v != first {
				vs = append(vs, Violation{Condition: "agreement",
					Detail: fmt.Sprintf("correct nodes decided both %s and %s", first, v)})
				break
			}
		}
		if want == "" {
			return vs
		}
		for _, name := range correct {
			if v, ok := decided[name]; ok && v != want {
				vs = append(vs, Violation{Condition: "validity",
					Detail: fmt.Sprintf("unanimous correct input %s but %s decided %s", want, name, v)})
				break
			}
		}
		return vs
	}
}

// weakCheck is weak agreement; validity binds only when every node of
// the behavior is correct.
func weakCheck(allCorrect bool) check {
	return func(run *sim.Run, correct []string) []Violation {
		return broken(weak.Check(run, correct, allCorrect), "choice")
	}
}

// firingSquadCheck is the Byzantine firing squad; validity binds only
// when every node of the behavior is correct.
func firingSquadCheck(allCorrect, stimulated bool) check {
	return func(run *sim.Run, correct []string) []Violation {
		return broken(firingsquad.Check(run, correct, allCorrect, stimulated), "termination")
	}
}

// simpleApproxCheck is simple approximate agreement.
func simpleApproxCheck(run *sim.Run, correct []string) []Violation {
	return broken(approx.CheckSimple(run, correct), "termination")
}

// edgCheck is (ε,δ,γ)-agreement.
func edgCheck(p EDGParams) check {
	return func(run *sim.Run, correct []string) []Violation {
		return broken(approx.CheckEDG(run, correct, p.Eps, p.Gamma), "termination")
	}
}

// copyInputs assigns the canonical two-copy inputs: every ".0" node gets
// zero's encoding and every ".1" node gets one's.
func copyInputs(s *graph.Graph, zero, one sim.Input) map[string]sim.Input {
	inputs := make(map[string]sim.Input, s.N())
	for _, name := range s.Names() {
		if strings.HasSuffix(name, ".1") {
			inputs[name] = one
		} else {
			inputs[name] = zero
		}
	}
	return inputs
}

// inCopy returns the S-nodes of the given nodes of an n-node G in copy
// i of a cyclic cover (graph.CyclicCover numbers copy i's nodes from
// i*n).
func inCopy(nodes []int, i, n int) []int {
	out := make([]int, len(nodes))
	for j, x := range nodes {
		out[j] = i*n + x
	}
	return out
}

// concat joins node lists into a fresh one.
func concat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// blockCover is the m-copy cyclic cover of g whose edges from block
// from to block to (see graph.Partition) cross into the next copy.
func blockCover(g *graph.Graph, block []int, from, to, m int) *graph.Cover {
	return graph.CyclicCover(g, func(u, v int) bool { return block[u] == from && block[v] == to }, m)
}
