// Package flm is a complete, executable reproduction of
//
//	Fischer, Lynch, Merritt,
//	"Easy Impossibility Proofs for Distributed Consensus Problems",
//	PODC 1985 / Distributed Computing 1(1), 1986.
//
// The paper proves that Byzantine agreement, weak agreement, the
// Byzantine firing squad, approximate agreement, and clock
// synchronization all require at least 3f+1 nodes and 2f+1 connectivity
// to tolerate f Byzantine faults. Its single proof technique — install
// the supposed devices on a covering graph, then use the Locality and
// Fault axioms to splice covering scenarios into correct behaviors of the
// original graph until the correctness conditions contradict each other —
// is implemented here as an executable engine: hand it any deterministic
// devices and an inadequate graph, and it returns the concrete chain of
// behaviors with the violated condition.
//
// The package also contains everything needed to show the bounds are
// tight: EIG and phase-king Byzantine agreement, Dolev's vertex-disjoint
// path routing for sparse graphs, DLPSW iterated approximate agreement, a
// firing-squad protocol, and fault-tolerant clock machinery, all built on
// a deterministic synchronous simulator (and, for clocks, an exact
// rational-time event simulator in which the paper's Scaling axiom holds
// bit for bit).
//
// Start with Adequate and the Prove* functions; see the examples/
// directory for runnable walkthroughs and cmd/flm for the experiment
// harness that regenerates every table and figure in EXPERIMENTS.md.
package flm

import (
	"context"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/chaos"
	"flm/internal/clockfn"
	"flm/internal/clocksync"
	"flm/internal/core"
	"flm/internal/dolev"
	"flm/internal/eval"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/initdead"
	"flm/internal/runcache"
	"flm/internal/signed"
	"flm/internal/sim"
	"flm/internal/sweep"
	"flm/internal/weak"
)

// Graph is a communication graph (symmetric directed-edge pairs).
type Graph = graph.Graph

// Cover is a covering graph with its neighborhood-preserving projection.
type Cover = graph.Cover

// Graph constructors.
var (
	// Triangle is the paper's three-node complete graph on a, b, c.
	Triangle = graph.Triangle
	// Diamond is the paper's four-node connectivity-2 cycle a-b-c-d.
	Diamond = graph.Diamond
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Ring returns the n-cycle.
	Ring = graph.Ring
	// Wheel returns the wheel graph (connectivity 3).
	Wheel = graph.Wheel
	// HexCover is the paper's six-node covering of the triangle.
	HexCover = graph.HexCover
	// DiamondCover is the paper's eight-node covering of the diamond.
	DiamondCover = graph.DiamondCover
	// RingCoverTriangle is the m-node ring covering of the triangle.
	RingCoverTriangle = graph.RingCoverTriangle
)

// Adequate reports whether g can possibly support the paper's consensus
// problems with f Byzantine faults: n >= 3f+1 and connectivity >= 2f+1.
func Adequate(g *Graph, f int) bool { return g.IsAdequate(f) }

// MaxTolerableFaults returns the largest f for which g is adequate.
func MaxTolerableFaults(g *Graph) int { return g.MaxTolerableFaults() }

// Simulation model.
type (
	// Builder constructs a device for a named node.
	Builder = sim.Builder
	// Protocol assigns builders and inputs to every node.
	Protocol = sim.Protocol
	// Run is a recorded system behavior.
	Run = sim.Run
	// Payload is one message's content.
	Payload = sim.Payload
	// Input is a node's problem input.
	Input = sim.Input
)

// ExecuteOpts selects what a simulator execution records and which
// delivery model it runs. The zero value is the decision-only fast
// synchronous mode used by large attack sweeps; set RecordSnapshots and
// RecordEdges (what Execute does) when the run feeds CheckLocality or a
// Prove* chain, which need the complete snapshot and edge history, and
// set Delays to run under an adversarial asynchronous delivery schedule.
type ExecuteOpts = sim.ExecuteOpts

// SeededDelays derives a deterministic delay schedule from a seed: a
// pure function of (seed, sender, receiver, round), independent of
// iteration or scheduling order.
var SeededDelays = sim.SeededDelays

// Simulation operations.
var (
	// NewSystem instantiates a protocol on a graph.
	NewSystem = sim.NewSystem
	// Execute runs a system for a number of rounds, recording everything.
	Execute = sim.Execute
	// ExecuteWith runs a system with explicit recording options.
	ExecuteWith = sim.ExecuteWith
	// CheckLocality verifies the Locality axiom on a concrete run.
	CheckLocality = sim.CheckLocality
	// ReplayBuilder installs replay devices through a Protocol.
	ReplayBuilder = sim.ReplayBuilder
	// BoolInput and RealInput encode problem inputs canonically.
	BoolInput = sim.BoolInput
	RealInput = sim.RealInput
	// CollectStats tallies a run's communication cost.
	CollectStats = sim.CollectStats
	// TraceRun renders a run's round-by-round edge traffic.
	TraceRun = sim.Trace
)

// Fault isolation: structured errors for misbehaving devices and trials.
type (
	// DeviceFault is a recovered device panic with node/round/operation
	// attribution and the captured stack.
	DeviceFault = sim.DeviceFault
	// ExecError wraps any executor failure with node and round context.
	ExecError = sim.ExecError
	// TrialFault is one isolated sweep trial's failure (panic, timeout,
	// or wrapped error) with trial attribution.
	TrialFault = sweep.TrialFault
	// SweepOpts configures an isolated sweep (fan-out, per-trial budget).
	SweepOpts = sweep.Opts
)

// ExecuteCtx runs a system under a context: cancellation and deadlines
// are checked at every round boundary.
var ExecuteCtx = sim.ExecuteCtx

// RunCacheStatsReport is the hit/miss/entry counters of the execution
// cache.
type RunCacheStatsReport = runcache.Stats

var (
	// RunCacheStats reports the execution cache's counters: repeated
	// identical (graph, devices, inputs, rounds, opts) executions are
	// served from cache when every device is fingerprintable.
	RunCacheStats = sim.RunCacheStats
	// SetRunCacheEnabled overrides the FLM_RUNCACHE default (caches on
	// unless FLM_RUNCACHE=off/0/false/no) and returns a restore func.
	SetRunCacheEnabled = runcache.SetEnabled
	// SetRunCacheDir installs the execution cache's on-disk tier at a
	// directory (empty = uninstall), enabling cross-process reuse of
	// memoized runs. Returns a restore func. The library default is no
	// disk tier; the flm CLI installs one per FLM_CACHE_DIR for every
	// command.
	SetRunCacheDir = sim.SetRunCacheDir
	// DisableDiskRunCache removes the disk tier (restore func returned),
	// for cold-run measurement paths like the perfbench benchmark.
	DisableDiskRunCache = sim.DisableDiskRunCache
	// RunCacheDir reports the installed disk tier's directory, or "".
	RunCacheDir = sim.RunCacheDir
	// DefaultCacheDir resolves the disk tier's directory from the
	// environment: FLM_CACHE_DIR, or the user cache dir, or "" (off).
	DefaultCacheDir = runcache.DefaultDir
)

// SpliceCacheStats returns a zero report: splices are no longer
// memoized (each one executes its G-run through the run cache). It is
// kept only for perfbench, whose emptyCaches check and tracer still call
// it, until that benchmark next changes.
func SpliceCacheStats() RunCacheStatsReport { return RunCacheStatsReport{} }

// ResetRunCaches drops every memoized execution from memory, for tests
// and for relieving memory pressure in very long sweeps.
func ResetRunCaches() { sim.ResetRunCache() }

// IsolatedSweep runs n independent trials with full fault isolation: a
// panicking or hanging trial is converted into a *TrialFault for its
// own index while every other trial completes.
func IsolatedSweep[T any](ctx context.Context, n int, o SweepOpts, fn func(int) (T, error)) ([]T, []error) {
	return sweep.Isolated(ctx, n, o, fn)
}

// Chaos harness: seeded randomized attack schedules against the
// protocol panel, with counterexample shrinking.

// ChaosConfig parameterizes one chaos run.
type ChaosConfig = chaos.Config

// RunChaos executes a full chaos run (generate, isolate, check, shrink).
var RunChaos = chaos.Run

// ChaosDefaultTimeout is the default per-trial wall budget.
const ChaosDefaultTimeout = chaos.DefaultTimeout

// Byzantine fault strategies for attacking protocols.
var (
	// Silent returns a device that never sends (omission failure).
	Silent = adversary.Silent
	// Equivocate builds a two-faced device from honest brains.
	Equivocate = adversary.Equivocate
	// Noise babbles seeded pseudo-random payloads.
	Noise = adversary.Noise
	// InitiallyDead returns a device that never takes a step — the
	// weakest fault family (FLP Section 4).
	InitiallyDead = adversary.InitiallyDead
)

// Byzantine agreement protocols and baselines.
var (
	// NewEIG returns exponential-information-gathering devices
	// (optimal resilience: n >= 3f+1, f+1 rounds).
	NewEIG = byzantine.NewEIG
	// EIGRounds is the simulator rounds an EIG run needs.
	EIGRounds = byzantine.EIGRounds
	// NewPhaseKing returns Berman-Garay phase-king devices (n >= 4f+1).
	NewPhaseKing = byzantine.NewPhaseKing
	// NewMajority is the natural (and doomed on inadequate graphs)
	// majority-voting device.
	NewMajority = byzantine.NewMajority
	// CheckByzantineAgreement evaluates the BA conditions on a run.
	CheckByzantineAgreement = byzantine.CheckBA
)

// ByzantineTrial is one agreement execution configuration.
type ByzantineTrial = byzantine.Trial

// Approximate agreement.
var (
	// NewDLPSW returns iterated approximate agreement devices.
	NewDLPSW = approx.NewDLPSW
	// ApproxRoundsFor returns rounds needed to shrink delta to eps.
	ApproxRoundsFor = approx.RoundsFor
	// CheckEDG evaluates the (ε,δ,γ)-agreement conditions.
	CheckEDG = approx.CheckEDG
)

// NewFiringSquad solves the firing squad via stimulus broadcast + BA.
var NewFiringSquad = firingsquad.NewViaBA

// Initially-dead consensus (the FLP Section 4 possibility baseline):
// with at most t nodes dead from the start and n > 2t, consensus is
// solvable even under adversarial message delays — the contrast that
// locates the paper's Byzantine bounds.
var (
	// NewInitdead returns FLP Section 4 initially-dead consensus devices
	// tolerating t initially-dead nodes on K_n with n > 2t.
	NewInitdead = initdead.New
	// InitdeadRounds is the simulator rounds a run needs when message
	// delays are bounded by D extra rounds.
	InitdeadRounds = initdead.Rounds
	// CheckInitdead evaluates termination, agreement, and strong
	// validity over a run's live nodes.
	CheckInitdead = initdead.Check
)

// Signed agreement (the Fault-axiom ablation).
var (
	// NewSigRegistry returns a fresh signature registry for one execution.
	NewSigRegistry = signed.NewRegistry
	// NewDolevStrong returns signed Byzantine agreement devices
	// (n >= 2f+1 — signatures beat the 3f+1 bound by breaking the Fault
	// axiom, exactly as the paper notes).
	NewDolevStrong = signed.NewDolevStrong
	// DolevStrongRounds is the simulator rounds a signed run needs.
	DolevStrongRounds = signed.Rounds
)

// Zero-delay weak consensus (footnote 4's Bounded-Delay ablation).
type (
	// ZDMessage is one scripted zero-delay transmission.
	ZDMessage = weak.ZDMessage
	// ZDStrategy scripts a faulty node in the zero-delay model.
	ZDStrategy = weak.ZDStrategy
)

var (
	// ZeroDelayRun executes footnote 4's algorithm.
	ZeroDelayRun = weak.ZeroDelayRun
	// CheckZeroDelay evaluates weak agreement on its result.
	CheckZeroDelay = weak.CheckZD
)

// Dolev routing for sparse graphs.
var (
	// NewRouter computes 2f+1 vertex-disjoint paths for every node pair.
	NewRouter = dolev.NewRouter
	// Overlay runs a complete-graph device over Dolev routing.
	Overlay = dolev.Overlay
)

// The impossibility engine (the paper's contribution).
var (
	// ProveByzantineTriangle is the f=1 hexagon argument.
	ProveByzantineTriangle = core.ByzantineTriangle
	// ProveFiringSquadNodes mechanizes Theorem 4's general node bound.
	ProveFiringSquadNodes = core.FiringSquadNodesRing
	// ProveSimpleApprox mechanizes Theorem 5.
	ProveSimpleApprox = core.SimpleApproxTriangle
	// InstallCover installs devices on a covering graph.
	InstallCover = core.InstallCover
	// SpliceScenario splices a covering scenario into a behavior of G.
	SpliceScenario = core.SpliceScenario
)

// Clock synchronization (Section 7).
type (
	// SyncParams describes a nontrivial-synchronization claim.
	SyncParams = clocksync.Params
	// SyncBuilder constructs clock synchronization devices.
	SyncBuilder = clocksync.Builder
	// LinearClock is the affine time function rate*t + off.
	LinearClock = clockfn.Linear
)

var (
	// NewTrivialClock runs the logical clock at the lower envelope —
	// provably optimal on inadequate graphs.
	NewTrivialClock = clocksync.NewTrivialLower
	// NewChaseClock synchronizes with the fastest neighbor.
	NewChaseClock = clocksync.NewChaseMax
	// NewMidpointClock averages neighbor readings.
	NewMidpointClock = clocksync.NewMidpoint
	// ProveClockSync mechanizes Theorem 8 on the scaled ring covering.
	ProveClockSync = clocksync.Theorem8
	// Corollary15 instantiates Section 7.1's logarithmic-clock bound: no
	// devices synchronize logical clocks closer than log2(r).
	Corollary15 = clocksync.Corollary15
	// NewRatClock builds an exact rational affine clock.
	NewRatClock = clockfn.NewRatLinear
	// RatIdentity is the exact identity clock.
	RatIdentity = clockfn.RatIdentity
)

// Experiment is one registered paper experiment.
type Experiment = eval.Experiment

// ExperimentResult is the structured outcome of one experiment.
type ExperimentResult = eval.Result

// Experiments returns the full experiment registry (E1-E20), one per
// theorem, corollary group, or tightness demonstration.
func Experiments() []Experiment { return eval.Registry() }

// FindExperiment returns the experiment with the given ID.
func FindExperiment(id string) (Experiment, bool) { return eval.Find(id) }
