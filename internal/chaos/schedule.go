package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/initdead"
	"flm/internal/sim"
)

// Action makes one node faulty with one strategy. Round parameterizes
// crash; Seed parameterizes every randomized strategy (omission subset,
// noise stream, equivocation faces, replay scripts, clock-liar values).
type Action struct {
	Node     string
	Strategy string
	Round    int
	Seed     int64
}

// Schedule is one fully-determined chaos trial: protocol instance, graph
// size, fault budget, per-node inputs, the faulty actions, and (in async
// mode) the adversarial delay schedule. Running a schedule involves no
// randomness beyond what the schedule itself encodes, which is what
// makes seed-reproduction and shrinking sound.
type Schedule struct {
	Protocol string
	N        int  // complete graph K_N
	F        int  // fault budget the protocol instance is built for
	Adequate bool // n meets the protocol's resilience threshold
	Rounds   int  // simulator rounds (sync protocols)
	Device   string
	Inputs   []string // canonical inputs in graph.Complete(N).Names() order
	Actions  []Action
	// Delays is the adversarial delay schedule ruleset (empty =
	// synchronous delivery). Delay rules are first-class attack
	// schedule entries: the shrinker minimizes them exactly like
	// Byzantine actions.
	Delays []sim.DelayRule
	// MaxDelay is the per-message delay bound the generator drew the
	// rules under; it sizes the round budget for delay-tolerant
	// protocols and is informational for the synchronous panel (whose
	// round structure any delay may break).
	MaxDelay int
}

// Outcome is the result of executing one schedule.
type Outcome struct {
	Violation error // a broken correctness condition (the interesting case)
	EngineErr error // the run itself failed (device fault, exec error)
}

// Strategy names composable on the synchronous protocols.
var syncStrategies = []string{
	"silent", "crash", "omit", "noise", "equivocate", "mirror", "replay",
}

// protocol describes one panel member.
type protocol struct {
	name     string
	sizes    []struct{ n, f int }
	minN     func(f int) int // resilience threshold: green expected iff n >= minN(f)
	alphabet []string        // payload/input alphabet for the randomized strategies
	input    func(rng *rand.Rand) string
	honest   func(f int, peers []string) sim.Builder
	rounds   func(f int) int
	check    func(run *sim.Run, correct []string) sim.Report
	// deadOnly renders every faulty action's node initially dead,
	// whatever its strategy label: the fault family is the protocol's
	// premise, and keeping the mapping total means a shrinker rewrite
	// can never turn its trial into an unrunnable one.
	deadOnly bool
}

var panel = []protocol{
	{
		name:     "eig",
		sizes:    []struct{ n, f int }{{3, 1}, {4, 1}, {5, 1}, {6, 2}, {7, 2}},
		minN:     func(f int) int { return 3*f + 1 },
		alphabet: []string{"0", "1"},
		input:    func(rng *rand.Rand) string { return sim.EncodeBool(rng.Intn(2) == 1) },
		honest:   func(f int, peers []string) sim.Builder { return byzantine.NewEIG(f, peers) },
		rounds:   byzantine.EIGRounds,
		check:    byzantine.CheckBA,
	},
	{
		name:     "phase-king",
		sizes:    []struct{ n, f int }{{4, 1}, {5, 1}, {6, 1}},
		minN:     func(f int) int { return 4*f + 1 },
		alphabet: []string{"0", "1"},
		input:    func(rng *rand.Rand) string { return sim.EncodeBool(rng.Intn(2) == 1) },
		honest:   func(f int, peers []string) sim.Builder { return byzantine.NewPhaseKing(f, peers) },
		rounds:   byzantine.PhaseKingRounds,
		check:    byzantine.CheckBA,
	},
	{
		name:     "turpin-coan",
		sizes:    []struct{ n, f int }{{3, 1}, {4, 1}, {5, 1}},
		minN:     func(f int) int { return 3*f + 1 },
		alphabet: []string{"red", "green", "blue"},
		input: func(rng *rand.Rand) string {
			return []string{"red", "green", "blue"}[rng.Intn(3)]
		},
		honest: func(f int, peers []string) sim.Builder { return byzantine.NewTurpinCoan(f, peers) },
		rounds: byzantine.TurpinCoanRounds,
		check:  byzantine.CheckBA,
	},
	{
		name:  "approx",
		sizes: []struct{ n, f int }{{3, 1}, {4, 1}, {5, 1}},
		minN:  func(f int) int { return 3*f + 1 },
		// Out-of-range reals deliberately included: validity says correct
		// outputs stay inside the correct input range, so a faulty node
		// pushing 100 is exactly the attack trimming must absorb.
		alphabet: []string{
			sim.EncodeReal(-100), sim.EncodeReal(-1), sim.EncodeReal(0.5),
			sim.EncodeReal(2), sim.EncodeReal(7), sim.EncodeReal(100),
		},
		input: func(rng *rand.Rand) string { return sim.EncodeReal(float64(rng.Intn(5))) },
		honest: func(f int, peers []string) sim.Builder {
			return approx.NewDLPSW(f, peers, approxAveragingRounds)
		},
		rounds: func(f int) int { return approx.DLPSWRounds(approxAveragingRounds) },
		check:  approx.CheckSimple,
	},
}

// initdeadProtocol is the FLP §4 initially-dead consensus protocol.
// It joins the draw only through newInitdeadSchedule, which sizes its
// trials on both sides of the n > 2t threshold.
var initdeadProtocol = protocol{
	name:     "initdead",
	honest:   func(t int, _ []string) sim.Builder { return initdead.New(t) },
	check:    initdead.Check,
	deadOnly: true,
}

// completeGraphs holds K_n for every size a generator draws (the panel,
// initdead and clock sizes), built once: a schedule's graph depends only
// on its size, and graph.Graph has no lazy state, so every trial and
// shrinker re-execution reads the same copy concurrently with no lock.
var completeGraphs = func() []*graph.Graph {
	maxN := 4 // newClockSchedule draws K3 or K4
	for _, p := range panel {
		for _, size := range p.sizes {
			maxN = max(maxN, size.n)
		}
	}
	for _, size := range initdeadSizes {
		maxN = max(maxN, size.n)
	}
	gs := make([]*graph.Graph, maxN+1)
	for n := range gs {
		gs[n] = graph.Complete(n)
	}
	return gs
}()

// complete returns the shared K_n, or a fresh one for a size no
// generator draws. Callers must not add edges to it.
func complete(n int) *graph.Graph {
	if n >= 0 && n < len(completeGraphs) {
		return completeGraphs[n]
	}
	return graph.Complete(n)
}

// approxAveragingRounds is the DLPSW iteration count used by chaos
// trials: enough that the guaranteed halving makes the output spread
// strictly smaller than any input spread the generator can produce.
const approxAveragingRounds = 4

// GenOpts selects the extended schedule generators. The zero value is
// the classic synchronous panel: NewScheduleWith(seed, i, GenOpts{}) is
// byte-identical to NewSchedule(seed, i), which keeps every pinned
// seed reproducible across releases.
type GenOpts struct {
	// Async draws a seeded adversarial delay schedule for every panel
	// trial (and bounded delays for the delay-tolerant protocols).
	Async bool
	// Dead mixes in the initially-dead fault family and the FLP §4
	// initdead consensus protocol on both sides of its n > 2t
	// threshold.
	Dead bool
}

// NewSchedule derives trial i of a chaos run deterministically from the
// master seed. The derivation depends only on (seed, i) — never on
// worker count or timing — so a schedule is reproducible from the
// printed seed alone.
func NewSchedule(seed int64, i int) Schedule {
	return NewScheduleWith(seed, i, GenOpts{})
}

// NewScheduleWith is NewSchedule with the extended generators enabled.
// Extended trials skip the timed clock-synchronization model: delay
// schedules act on the round-based executor, and the timed model
// carries its own native notion of message timing.
func NewScheduleWith(seed int64, i int, o GenOpts) Schedule {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixer (0x9E37...15 as int64)
	rng := rand.New(rand.NewSource(seed ^ (mix * int64(i+1))))
	extended := o.Async || o.Dead
	// One slot in five is clock synchronization (the timed model); the
	// rest sweep the synchronous panel.
	if !extended && rng.Intn(5) == 0 {
		return newClockSchedule(rng)
	}
	if o.Dead && rng.Intn(3) == 0 {
		return newInitdeadSchedule(rng, o)
	}
	p := panel[rng.Intn(len(panel))]
	size := p.sizes[rng.Intn(len(p.sizes))]
	names := complete(size.n).Names()

	s := Schedule{
		Protocol: p.name,
		N:        size.n,
		F:        size.f,
		Adequate: size.n >= p.minN(size.f),
		Rounds:   p.rounds(size.f),
		Inputs:   make([]string, size.n),
	}
	for j := range s.Inputs {
		s.Inputs[j] = p.input(rng)
	}
	k := 1 + rng.Intn(size.f) // 1..f faulty nodes: stay inside the budget
	perm := rng.Perm(size.n)
	for j := 0; j < k; j++ {
		s.Actions = append(s.Actions, Action{
			Node:     names[perm[j]],
			Strategy: syncStrategies[rng.Intn(len(syncStrategies))],
			Round:    1 + rng.Intn(3),
			Seed:     rng.Int63(),
		})
	}
	sortActions(s.Actions)
	if o.Async {
		// The panel protocols assume synchronous delivery, so ANY delay
		// schedule voids their resilience guarantee: delayed trials are
		// classified inadequate — violations become expected findings
		// (and survivals stay unremarkable greens), never CI failures.
		s.MaxDelay = 1 + rng.Intn(2)
		s.Delays = sim.SeededDelays(rng.Int63(), names, s.Rounds, s.MaxDelay).Rules
		s.Adequate = false
	}
	return s
}

// initdeadSizes spans both sides of the n > 2t threshold.
var initdeadSizes = []struct{ n, t int }{{3, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 3}}

// newInitdeadSchedule draws one FLP §4 initially-dead consensus trial:
// 0..t dead nodes, and — in async mode — either bounded seeded delays
// (under which an n > 2t instance must stay green) or, on the
// inadequate sizes, the unbounded partition schedule with group-split
// inputs that the impossibility argument predicts will disagree.
func newInitdeadSchedule(rng *rand.Rand, o GenOpts) Schedule {
	size := initdeadSizes[rng.Intn(len(initdeadSizes))]
	names := complete(size.n).Names()
	s := Schedule{
		Protocol: "initdead",
		N:        size.n,
		F:        size.t,
		Adequate: size.n > 2*size.t,
		Inputs:   make([]string, size.n),
	}
	if o.Async {
		s.MaxDelay = 1 + rng.Intn(2)
	}
	s.Rounds = initdead.Rounds(s.MaxDelay)
	for j := range s.Inputs {
		s.Inputs[j] = sim.EncodeBool(rng.Intn(2) == 1)
	}
	k := rng.Intn(size.t + 1) // 0..t initially-dead nodes
	perm := rng.Perm(size.n)
	for j := 0; j < k; j++ {
		s.Actions = append(s.Actions, Action{Node: names[perm[j]], Strategy: "dead"})
	}
	sortActions(s.Actions)
	if o.Async {
		if !s.Adequate && rng.Intn(2) == 0 {
			// The impossibility witness: partition the nodes, give the
			// groups different inputs, delay cross-group traffic past
			// the horizon.
			s.Delays = initdead.PartitionDelays(names, size.t, s.Rounds).Rules
			s.MaxDelay = s.Rounds
			for j := range s.Inputs {
				s.Inputs[j] = sim.EncodeBool(j >= size.n-size.t)
			}
		} else {
			s.Delays = sim.SeededDelays(rng.Int63(), names, s.Rounds, s.MaxDelay).Rules
		}
	}
	return s
}

func sortActions(acts []Action) {
	sort.Slice(acts, func(i, j int) bool { return acts[i].Node < acts[j].Node })
}

// delaysOf adapts the schedule's delay rules for the executor; empty
// rule sets run synchronously.
func delaysOf(s Schedule) *sim.DelaySchedule {
	if len(s.Delays) == 0 {
		return nil
	}
	return &sim.DelaySchedule{Rules: s.Delays}
}

// RunSchedule executes one schedule and checks its protocol's
// correctness conditions. It is a pure function of the schedule.
func RunSchedule(s Schedule) Outcome {
	if s.Protocol == "clocksync" {
		return runClockSchedule(s)
	}
	p, ok := findProtocol(s.Protocol)
	if !ok {
		return Outcome{EngineErr: fmt.Errorf("chaos: unknown protocol %q", s.Protocol)}
	}
	g := complete(s.N)
	names := g.Names()
	if len(s.Inputs) != len(names) {
		return Outcome{EngineErr: fmt.Errorf("chaos: %d inputs for %d nodes", len(s.Inputs), len(names))}
	}
	t := sim.Trial{
		G:      g,
		Inputs: make(map[string]sim.Input, len(names)),
		Honest: p.honest(s.F, names),
		Faulty: make(map[string]sim.Builder, len(s.Actions)),
		Rounds: s.Rounds,
	}
	for j, name := range names {
		t.Inputs[name] = sim.Input(s.Inputs[j])
	}
	for _, a := range s.Actions {
		t.Faulty[a.Node] = corrupt(a, p, t.Honest, s.Rounds)
	}
	run, correct, err := t.Run(sim.ExecuteOpts{Delays: delaysOf(s)})
	if err != nil {
		return Outcome{EngineErr: err}
	}
	return Outcome{Violation: p.check(run, correct).Err()}
}

func findProtocol(name string) (protocol, bool) {
	if name == initdeadProtocol.name {
		return initdeadProtocol, true
	}
	for _, p := range panel {
		if p.name == name {
			return p, true
		}
	}
	return protocol{}, false
}

// corrupt composes the adversary-package strategies into the builder for
// one faulty node, fully determined by the action.
func corrupt(a Action, p protocol, honest sim.Builder, rounds int) sim.Builder {
	if p.deadOnly {
		return adversary.InitiallyDead()
	}
	alphabet := p.alphabet
	switch a.Strategy {
	case "silent":
		return adversary.Silent()
	case "dead":
		return adversary.InitiallyDead()
	case "crash":
		return adversary.Crash(honest, a.Round)
	case "omit":
		return func(self string, neighbors []string, input sim.Input) sim.Device {
			rng := rand.New(rand.NewSource(a.Seed))
			var drop []string
			for _, nb := range neighbors { // neighbors arrive sorted
				if rng.Intn(2) == 0 {
					drop = append(drop, nb)
				}
			}
			if len(drop) == 0 && len(neighbors) > 0 {
				drop = append(drop, neighbors[0])
			}
			return adversary.Omission(honest, drop...)(self, neighbors, input)
		}
	case "noise":
		payloads := make([]sim.Payload, len(alphabet))
		for i, v := range alphabet {
			payloads[i] = sim.Payload(v)
		}
		return adversary.Noise(a.Seed, payloads...)
	case "equivocate":
		i := int(a.Seed % int64(len(alphabet)))
		if i < 0 {
			i += len(alphabet)
		}
		j := (i + 1) % len(alphabet)
		faceB := func(nb string) bool {
			h := fnv.New64a()
			h.Write([]byte(nb))
			return (h.Sum64()^uint64(a.Seed))%2 == 0
		}
		return adversary.Equivocate(honest, sim.Input(alphabet[i]), sim.Input(alphabet[j]), faceB)
	case "mirror":
		return adversary.Mirror()
	case "replay":
		return func(self string, neighbors []string, input sim.Input) sim.Device {
			rng := rand.New(rand.NewSource(a.Seed))
			scripts := make(map[string][]sim.Payload, len(neighbors))
			for _, nb := range neighbors {
				seq := make([]sim.Payload, rounds)
				for r := range seq {
					if rng.Intn(3) > 0 {
						seq[r] = sim.Payload(alphabet[rng.Intn(len(alphabet))])
					}
				}
				scripts[nb] = seq
			}
			return sim.ReplayBuilder(scripts)(self, neighbors, input)
		}
	default:
		// An unknown strategy behaves as the weakest one rather than
		// failing the trial: shrinking may rewrite strategies.
		return adversary.Silent()
	}
}
