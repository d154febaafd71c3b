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

// Edge is a directed edge between named nodes.
type Edge = graph.Edge

// Graph constructors.
var (
	// NewGraph returns an edgeless graph over the given node names.
	NewGraph = graph.New
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
	// Circulant returns the circulant graph C_n(offsets).
	Circulant = graph.Circulant
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// HexCover is the paper's six-node covering of the triangle.
	HexCover = graph.HexCover
	// DiamondCover is the paper's eight-node covering of the diamond.
	DiamondCover = graph.DiamondCover
	// RingCoverTriangle is the m-node ring covering of the triangle.
	RingCoverTriangle = graph.RingCoverTriangle
	// PartitionCover is the general two-copy covering for the node bound.
	PartitionCover = graph.PartitionCover
	// CutCover is the general two-copy covering for the connectivity bound.
	CutCover = graph.CutCover
)

// Adequate reports whether g can possibly support the paper's consensus
// problems with f Byzantine faults: n >= 3f+1 and connectivity >= 2f+1.
func Adequate(g *Graph, f int) bool { return g.IsAdequate(f) }

// MaxTolerableFaults returns the largest f for which g is adequate.
func MaxTolerableFaults(g *Graph) int { return g.MaxTolerableFaults() }

// Simulation model.
type (
	// Device is a deterministic round-based consensus device.
	Device = sim.Device
	// Builder constructs a device for a named node.
	Builder = sim.Builder
	// Protocol assigns builders and inputs to every node.
	Protocol = sim.Protocol
	// System is a graph with devices and inputs installed.
	System = sim.System
	// Run is a recorded system behavior.
	Run = sim.Run
	// Scenario is the restriction of a behavior to a subgraph.
	Scenario = sim.Scenario
	// Payload is one message's content.
	Payload = sim.Payload
	// Input is a node's problem input.
	Input = sim.Input
	// Decision is a device's irrevocable output.
	Decision = sim.Decision
)

// ExecuteOpts selects what a simulator execution records and which
// delivery model it runs. The zero value is the decision-only fast
// synchronous mode used by large attack sweeps; use FullRecording when
// the run feeds CheckLocality, Extract, or a Prove* chain, which need
// the complete snapshot and edge history, and set Delays to run under
// an adversarial asynchronous delivery schedule.
type ExecuteOpts = sim.ExecuteOpts

// Adversarial asynchrony: deterministic per-message delay schedules.
type (
	// DelayRule defers one (sender, receiver, round) delivery by Extra
	// rounds; delivery past the run's horizon is message loss.
	DelayRule = sim.DelayRule
	// DelaySchedule is a set of delay rules; nil or empty means the
	// classic synchronous model.
	DelaySchedule = sim.DelaySchedule
)

// SeededDelays derives a deterministic delay schedule from a seed: a
// pure function of (seed, sender, receiver, round), independent of
// iteration or scheduling order.
var SeededDelays = sim.SeededDelays

// FullRecording records snapshots and edge traffic (what Execute does).
var FullRecording = sim.FullRecording

// Simulation operations.
var (
	// NewSystem instantiates a protocol on a graph.
	NewSystem = sim.NewSystem
	// Execute runs a system for a number of rounds, recording everything.
	Execute = sim.Execute
	// ExecuteWith runs a system with explicit recording options.
	ExecuteWith = sim.ExecuteWith
	// ExtractScenario restricts a run to a node subset.
	ExtractScenario = sim.Extract
	// CheckLocality verifies the Locality axiom on a concrete run.
	CheckLocality = sim.CheckLocality
	// NewReplayDevice is the Fault-axiom device F_A(E_1,...,E_d).
	NewReplayDevice = sim.NewReplayDevice
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

// Stats summarizes a run's communication cost.
type Stats = sim.Stats

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

var (
	// ExecuteCtx runs a system under a context: cancellation and
	// deadlines are checked at every round boundary.
	ExecuteCtx = sim.ExecuteCtx
	// FirstSweepError recovers the lowest-failing-index error of a sweep.
	FirstSweepError = sweep.FirstError
)

// RunCacheStatsReport is the hit/miss/entry counters of one memoization
// cache (the execution cache or the splice cache).
type RunCacheStatsReport = runcache.Stats

var (
	// RunCacheStats reports the execution cache's counters: repeated
	// identical (graph, devices, inputs, rounds, opts) executions are
	// served from cache when every device is fingerprintable.
	RunCacheStats = sim.RunCacheStats
	// SpliceCacheStats reports the splice cache's counters: repeated
	// scenario splices of the same covering run are served from cache.
	SpliceCacheStats = core.SpliceCacheStats
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
	// SetRunCacheBudget rebounds the execution cache's in-memory byte
	// budget at runtime (negative = unbounded, zero = retain nothing),
	// overriding FLM_CACHE_BUDGET; returns a restore func.
	SetRunCacheBudget = sim.SetRunCacheBudget
	// ParseCacheBudget parses a FLM_CACHE_BUDGET-style value ("64MiB",
	// "unbounded", ...) into a byte count.
	ParseCacheBudget = runcache.ParseBudget
	// DefaultCacheDir resolves the disk tier's directory from the
	// environment: FLM_CACHE_DIR, or the user cache dir, or "" (off).
	DefaultCacheDir = runcache.DefaultDir
)

// ResetRunCaches drops every memoized execution and splice, for tests
// and for relieving memory pressure in very long sweeps.
func ResetRunCaches() {
	sim.ResetRunCache()
	core.ResetSpliceCache()
}

// IsolatedSweep runs n independent trials with full fault isolation: a
// panicking or hanging trial is converted into a *TrialFault for its
// own index while every other trial completes.
func IsolatedSweep[T any](ctx context.Context, n int, o SweepOpts, fn func(int) (T, error)) ([]T, []error) {
	return sweep.Isolated(ctx, n, o, fn)
}

// Chaos harness: seeded randomized attack schedules against the
// protocol panel, with counterexample shrinking.
type (
	// ChaosConfig parameterizes one chaos run.
	ChaosConfig = chaos.Config
	// ChaosReport aggregates a chaos run's findings.
	ChaosReport = chaos.Report
	// ChaosFinding is one violation with everything needed to reproduce it.
	ChaosFinding = chaos.Finding
	// ChaosSchedule is one fully-determined chaos trial.
	ChaosSchedule = chaos.Schedule
	// ChaosGenOpts selects the generator's extended fault families
	// (adversarial delay schedules, initially-dead subsets).
	ChaosGenOpts = chaos.GenOpts
)

var (
	// RunChaos executes a full chaos run (generate, isolate, check, shrink).
	RunChaos = chaos.Run
	// NewChaosSchedule derives trial i deterministically from a seed.
	NewChaosSchedule = chaos.NewSchedule
	// NewChaosScheduleWith derives trial i with extended fault families;
	// the zero ChaosGenOpts is byte-identical to NewChaosSchedule.
	NewChaosScheduleWith = chaos.NewScheduleWith
	// RunChaosSchedule executes one schedule and checks its conditions.
	RunChaosSchedule = chaos.RunSchedule
	// ShrinkChaosSchedule minimizes a violating schedule.
	ShrinkChaosSchedule = chaos.Shrink
)

// ChaosDefaultTimeout is the default per-trial wall budget.
const ChaosDefaultTimeout = chaos.DefaultTimeout

// Byzantine fault strategies for attacking protocols.
var (
	// Silent returns a device that never sends (omission failure).
	Silent = adversary.Silent
	// Crash makes a device fail-stop at the given round.
	Crash = adversary.Crash
	// Omission drops messages to the listed neighbors.
	Omission = adversary.Omission
	// Equivocate builds a two-faced device from honest brains.
	Equivocate = adversary.Equivocate
	// Noise babbles seeded pseudo-random payloads.
	Noise = adversary.Noise
	// InitiallyDead returns a device that never takes a step — the
	// weakest fault family (FLP Section 4).
	InitiallyDead = adversary.InitiallyDead
	// AttackPanel is the standard suite of fault strategies.
	AttackPanel = adversary.Panel
)

// Strategy couples a named way to corrupt an honest builder.
type Strategy = adversary.Strategy

// Byzantine agreement protocols and baselines.
var (
	// NewEIG returns exponential-information-gathering devices
	// (optimal resilience: n >= 3f+1, f+1 rounds).
	NewEIG = byzantine.NewEIG
	// EIGRounds is the simulator rounds an EIG run needs.
	EIGRounds = byzantine.EIGRounds
	// NewPhaseKing returns Berman-Garay phase-king devices (n >= 4f+1).
	NewPhaseKing = byzantine.NewPhaseKing
	// PhaseKingRounds is the simulator rounds a phase-king run needs.
	PhaseKingRounds = byzantine.PhaseKingRounds
	// NewMajority is the natural (and doomed on inadequate graphs)
	// majority-voting device.
	NewMajority = byzantine.NewMajority
	// NewTurpinCoan returns multivalued agreement devices (arbitrary
	// string values, n >= 3f+1) via the Turpin-Coan reduction.
	NewTurpinCoan = byzantine.NewTurpinCoan
	// TurpinCoanRounds is the simulator rounds a Turpin-Coan run needs.
	TurpinCoanRounds = byzantine.TurpinCoanRounds
	// CheckByzantineAgreement evaluates the BA conditions on a run.
	CheckByzantineAgreement = byzantine.CheckBA
)

// ByzantineTrial is one agreement execution configuration.
type ByzantineTrial = byzantine.Trial

// ByzantineReport holds the evaluated BA conditions.
type ByzantineReport = byzantine.Report

// Approximate agreement.
var (
	// NewDLPSW returns iterated approximate agreement devices.
	NewDLPSW = approx.NewDLPSW
	// NewMedian returns single-shot median devices.
	NewMedian = approx.NewMedian
	// ApproxRoundsFor returns rounds needed to shrink delta to eps.
	ApproxRoundsFor = approx.RoundsFor
	// CheckSimpleApprox evaluates the simple approximate conditions.
	CheckSimpleApprox = approx.CheckSimple
	// CheckEDG evaluates the (ε,δ,γ)-agreement conditions.
	CheckEDG = approx.CheckEDG
)

// Weak agreement and firing squad.
var (
	// NewWeakViaBA solves weak agreement through full BA.
	NewWeakViaBA = weak.NewViaBA
	// NewDetectDefault is the detect-anomaly-then-default weak device.
	NewDetectDefault = weak.NewDetectDefault
	// CheckWeakAgreement evaluates the weak agreement conditions.
	CheckWeakAgreement = weak.Check
	// NewFiringSquad solves the firing squad via stimulus broadcast + BA.
	NewFiringSquad = firingsquad.NewViaBA
	// FiringSquadRounds is the simulator rounds a firing-squad run needs.
	FiringSquadRounds = firingsquad.Rounds
	// CheckFiringSquad evaluates the firing squad conditions.
	CheckFiringSquad = firingsquad.Check
)

// Fired is the FIRE decision value.
const Fired = firingsquad.Fired

// Initially-dead consensus (the FLP Section 4 possibility baseline):
// with at most t nodes dead from the start and n > 2t, consensus is
// solvable even under adversarial message delays — the contrast that
// locates the paper's Byzantine bounds.
type (
	// InitdeadReport holds the evaluated initially-dead consensus
	// conditions for a run's live nodes.
	InitdeadReport = initdead.Report
)

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
	// InitdeadPartitionDelays is the n <= 2t impossibility witness: a
	// delay schedule that splits the nodes into two groups that decide
	// independently.
	InitdeadPartitionDelays = initdead.PartitionDelays
)

// Signed agreement (the Fault-axiom ablation).
type (
	// SigRegistry models an unforgeable per-execution signature scheme.
	SigRegistry = signed.Registry
)

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
	// ZDResult is the outcome of a zero-delay run.
	ZDResult = weak.ZDResult
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

// Router is a Dolev disjoint-path routing table.
type Router = dolev.Router

// The impossibility engine (the paper's contribution).
type (
	// ChainResult is a mechanized contradiction chain.
	ChainResult = core.ChainResult
	// Violation is one broken condition in one constructed behavior.
	Violation = core.Violation
	// EDGParams are (ε,δ,γ)-agreement parameters.
	EDGParams = core.EDGParams
)

var (
	// ProveByzantineNodes mechanizes Theorem 1's 3f+1 node bound.
	ProveByzantineNodes = core.ByzantineNodes
	// ProveByzantineTriangle is the f=1 hexagon argument.
	ProveByzantineTriangle = core.ByzantineTriangle
	// ProveByzantineConnectivity mechanizes the 2f+1 connectivity bound.
	ProveByzantineConnectivity = core.ByzantineConnectivity
	// ProveByzantineDiamond is the f=1 diamond argument.
	ProveByzantineDiamond = core.ByzantineDiamond
	// ProveWeakAgreement mechanizes Theorem 2 on the 4k-ring.
	ProveWeakAgreement = core.WeakAgreementRing
	// ProveWeakAgreementConnectivity mechanizes Theorem 2's connectivity
	// half on the ring-of-copies covering.
	ProveWeakAgreementConnectivity = core.WeakAgreementCutRing
	// ProveWeakAgreementNodes mechanizes Theorem 2's general node bound
	// (n <= 3f) on the ring-of-blocks covering.
	ProveWeakAgreementNodes = core.WeakAgreementNodesRing
	// ProveFiringSquadNodes mechanizes Theorem 4's general node bound.
	ProveFiringSquadNodes = core.FiringSquadNodesRing
	// ProveFiringSquad mechanizes Theorem 4 on the 4k-ring.
	ProveFiringSquad = core.FiringSquadRing
	// ProveFiringSquadConnectivity mechanizes Theorem 4's connectivity half.
	ProveFiringSquadConnectivity = core.FiringSquadCutRing
	// ProveSimpleApprox mechanizes Theorem 5.
	ProveSimpleApprox = core.SimpleApproxTriangle
	// ProveSimpleApproxConnectivity mechanizes Theorem 5's connectivity half.
	ProveSimpleApproxConnectivity = core.SimpleApproxConnectivity
	// ProveEpsilonDeltaGamma mechanizes Theorem 6.
	ProveEpsilonDeltaGamma = core.EpsilonDeltaGamma
	// ProveEpsilonDeltaGammaNodes mechanizes Theorem 6's general node bound.
	ProveEpsilonDeltaGammaNodes = core.EpsilonDeltaGammaNodes
	// ProveEpsilonDeltaGammaConnectivity mechanizes Theorem 6's
	// connectivity bound.
	ProveEpsilonDeltaGammaConnectivity = core.EpsilonDeltaGammaConnectivity
	// InstallCover installs devices on a covering graph.
	InstallCover = core.InstallCover
	// SpliceScenario splices a covering scenario into a behavior of G.
	SpliceScenario = core.SpliceScenario
)

// Clock synchronization (Section 7).
type (
	// SyncParams describes a nontrivial-synchronization claim.
	SyncParams = clocksync.Params
	// SyncResult is a mechanized Theorem 8 outcome.
	SyncResult = clocksync.Result
	// SyncBuilder constructs clock synchronization devices.
	SyncBuilder = clocksync.Builder
	// ClockFn is an increasing invertible function of time.
	ClockFn = clockfn.Fn
	// LinearClock is the affine time function rate*t + off.
	LinearClock = clockfn.Linear
	// RatClock is an exact rational affine hardware clock.
	RatClock = clockfn.RatLinear
)

var (
	// NewTrivialClock runs the logical clock at the lower envelope —
	// provably optimal on inadequate graphs.
	NewTrivialClock = clocksync.NewTrivialLower
	// NewChaseClock synchronizes with the fastest neighbor.
	NewChaseClock = clocksync.NewChaseMax
	// NewMidpointClock averages neighbor readings.
	NewMidpointClock = clocksync.NewMidpoint
	// NewTrimmedMidpointClock is the fault-tolerant averaging device that
	// beats the trivial gap on adequate graphs.
	NewTrimmedMidpointClock = clocksync.NewTrimmedMidpoint
	// MeasureAdequateSync samples synchronization quality on adequate
	// graphs (the side Theorem 8 does not cover).
	MeasureAdequateSync = clocksync.MeasureAdequateSync
	// ClockLiarScript fabricates inconsistent clock readings for a
	// scripted Byzantine node.
	ClockLiarScript = clocksync.ClockLiarScript
	// ProveClockSync mechanizes Theorem 8 on the scaled ring covering.
	ProveClockSync = clocksync.Theorem8
	// ProveClockSyncNodes mechanizes Theorem 8's general node bound.
	ProveClockSyncNodes = clocksync.Theorem8Nodes
	// ProveClockSyncConnectivity mechanizes Theorem 8's connectivity bound.
	ProveClockSyncConnectivity = clocksync.Theorem8Connectivity
	// Corollary12 through Corollary15 instantiate the Section 7.1 bounds.
	Corollary12 = clocksync.Corollary12
	Corollary13 = clocksync.Corollary13
	Corollary14 = clocksync.Corollary14
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
