// Package sim is the synchronous message-passing execution model on which
// the FLM85 reproduction runs. It makes the paper's abstract notions
// concrete:
//
//   - a Device is a deterministic round-based automaton that reads and
//     writes one payload per port (incident edge) each round;
//   - a node behavior is the sequence of device state snapshots;
//   - an edge behavior is the sequence of payloads carried by a directed
//     edge, one per round;
//   - a system behavior (a Run) is the tuple of all node and edge
//     behaviors.
//
// The model satisfies the paper's Locality axiom by construction (a
// device's next state depends only on its own state and its inbox), and
// CheckLocality verifies it on concrete runs. It also satisfies the
// Bounded-Delay Locality axiom with delta equal to one round, because a
// message sent in round r is delivered in round r+1.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/runcache"
)

// Payload is the content of one message. The empty payload means "no
// message this round"; edge behaviors are sequences of payloads, so two
// edge behaviors are equal exactly when the same bytes flowed in the same
// rounds.
type Payload string

// None is the absent message.
const None Payload = ""

// Input is a node's problem input, canonically encoded (see EncodeBool
// and EncodeReal in codec.go).
type Input string

// Decision is a device's irrevocable output value, canonically encoded.
type Decision struct {
	Value string // chosen value; "" while undecided
	Round int    // round at which the choice was made
}

// Inbox is one round's mail, indexed by port: Inbox[i] is the payload
// received from port i, and None where that neighbor sent nothing. Port
// i is the i-th name of the sorted neighbor list the device's Builder
// receives, so a device addresses its neighbors by position, never by
// name lookup.
type Inbox []Payload

// Outbox is one round's sends, indexed by port like Inbox: Outbox[i]
// goes to port i, and None sends nothing there. A device returns nil to
// send nothing at all; a non-nil Outbox must have exactly one entry per
// port, and any other length is an execution error.
type Outbox []Payload

// Device is a deterministic consensus device. The executor drives it
// with:
//
//	Init(self, neighbors, input)        // once, before round 0
//	for r := 0; r < rounds; r++ {
//	    out := Step(r, inbox)           // inbox from round r-1 sends
//	}
//
// neighbors is sorted by name, and its order defines the device's
// ports: Step's inbox and outbox both index position i as the i-th
// name. A device built from an unsorted list (a direct Builder call)
// must sort it to find its ports.
//
// The Inbox passed to Step is owned by the executor: it is the device's
// window into the executor's mailbox ring, which later rounds' mail
// overwrites. Devices must read what they need during Step and must
// neither retain nor write the slice. Symmetrically, the Outbox returned
// by Step is owned by the device and may be a buffer it reuses on the
// next Step: callers (the executor included) must consume it before
// stepping the device again and must never retain it across rounds.
//
// Snapshot must canonically encode the full device state so that two
// devices are behaving identically iff their snapshot sequences are
// equal. Output reports the device's choice once made; it must never
// change after it is first reported (the executor enforces this).
//
// Devices must be deterministic: identical Init arguments and inbox
// sequences must yield identical outboxes, snapshots, and outputs. This
// is the paper's base model; seeded pseudo-randomness is permitted
// because the seed is part of the device, making the composite
// deterministic (the Section 3 nondeterminism remark is exercised this
// way).
type Device interface {
	Init(self string, neighbors []string, input Input)
	Step(round int, inbox Inbox) Outbox
	Snapshot() string
	Output() (Decision, bool)
}

// Builder constructs a fresh device instance for a named node. Installing
// a protocol on a covering graph instantiates the same builder at every
// node of the fiber, which is exactly the paper's "assign devices to
// nodes of S according to their corresponding node in G".
type Builder func(self string, neighbors []string, input Input) Device

// Broadcast returns an outbox carrying p on each of the given number of
// ports, reusing buf when it already has that length, so a device can
// keep the result as its outbox buffer (see the Device Outbox contract).
func Broadcast(buf Outbox, ports int, p Payload) Outbox {
	if len(buf) != ports {
		buf = make(Outbox, ports)
	}
	for i := range buf {
		buf[i] = p
	}
	return buf
}

// PortsOf returns the port of each name, its index in the sorted
// neighbor list, or -1 for a name that is not a neighbor. Devices resolve
// their peers to ports once, at Init, instead of per message.
func PortsOf(names, neighbors []string) []int {
	ports := make([]int, len(names))
	for i, name := range names {
		j, ok := slices.BinarySearch(neighbors, name)
		if !ok {
			j = -1
		}
		ports[i] = j
	}
	return ports
}

// Protocol assigns a device builder and an input to every node of a
// graph.
type Protocol struct {
	Builders map[string]Builder
	Inputs   map[string]Input
}

// System is a communication graph with a device and input assigned to
// every node — the paper's "system".
type System struct {
	G       *graph.Graph
	Devices []Device // indexed by node
	Inputs  []Input  // indexed by node
}

// NewSystem instantiates a protocol on a graph. Every node must have a
// builder and an input.
func NewSystem(g *graph.Graph, p Protocol) (*System, error) {
	sys := &System{
		G:       g,
		Devices: make([]Device, g.N()),
		Inputs:  make([]Input, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		name := g.Name(u)
		b, ok := p.Builders[name]
		if !ok {
			return nil, fmt.Errorf("sim: no device builder for node %q", name)
		}
		input, ok := p.Inputs[name]
		if !ok {
			return nil, fmt.Errorf("sim: no input for node %q", name)
		}
		sys.Inputs[u] = input
		dev, fault := safeBuild(b, name, neighborNames(g, u), input)
		if fault != nil {
			return nil, fault
		}
		sys.Devices[u] = dev
	}
	return sys, nil
}

func neighborNames(g *graph.Graph, u int) []string {
	ports := portOrder(g, u)
	names := make([]string, len(ports))
	for i, v := range ports {
		names[i] = g.Name(v)
	}
	return names
}

// portOrder returns u's neighbor indices sorted by name: entry i is the
// node behind u's port i.
func portOrder(g *graph.Graph, u int) []int {
	nbs := g.Neighbors(u)
	slices.SortFunc(nbs, func(a, b int) int { return strings.Compare(g.Name(a), g.Name(b)) })
	return nbs
}

// Run is a recorded system behavior: every node behavior (snapshot
// sequence and decision) and every edge behavior (payload per round).
//
// A Run is immutable once ExecuteCtx returns it. The run cache depends
// on this: cached runs are shared between callers (including across
// goroutines under parallel sweeps), never copied, so consumers must
// treat every field — Snapshots, Edges and the payload slices inside —
// as read-only.
type Run struct {
	G         *graph.Graph
	Rounds    int
	Inputs    []Input
	Snapshots [][]string               // Snapshots[u][r] = state of node u after round r
	Edges     map[graph.Edge][]Payload // Edges[e][r] = payload carried in round r
	Decisions []Decision               // zero Value when the node never decided
}

// ExecuteOpts selects what ExecuteWith records and under which delivery
// model the system runs. The zero value is the fast mode: only decisions
// are tracked, synchronous delivery. Axiom verification (CheckLocality
// and every Prove* chain) requires full recording; decision-only sweeps
// (attack panels, tightness censuses) use the fast mode.
type ExecuteOpts struct {
	RecordSnapshots bool // populate Run.Snapshots (one string per node per round)
	RecordEdges     bool // populate Run.Edges (payload sequences per directed edge)

	// Delays switches the execution into the adversarial asynchronous
	// delivery mode (see async.go): matching messages are held back
	// extra rounds, deliveries past the horizon are lost. nil (or an
	// empty schedule) is the synchronous model. Edge behaviors still
	// record payloads at their send round — the wire history — so async
	// runs must not be fed to CheckLocality or the splice engine.
	Delays *DelaySchedule
}

// FullRecording records everything — the behavior of Execute, and the
// mode required wherever runs feed the Locality/Fault axiom machinery.
var FullRecording = ExecuteOpts{RecordSnapshots: true, RecordEdges: true}

// Execute runs the system for the given number of rounds and records the
// complete behavior. Messages sent in round r are delivered in round r+1;
// the inbox of round 0 is empty.
//
// On an execution error (an outbox of the wrong length or a changed
// decision), Execute finishes recording the failing round for every node
// and returns the partial Run alongside the error, so the state that
// produced the error is diagnosable. The partial Run must not be treated as a system
// behavior — the error is authoritative.
func Execute(sys *System, rounds int) (*Run, error) {
	return ExecuteWith(sys, rounds, FullRecording)
}

// ExecuteWith is Execute with explicit recording options. Runs produced
// in fast mode carry nil Snapshots/Edges; only Inputs and Decisions are
// usable. Fast and full runs of the same system are otherwise identical:
// recording never feeds back into device execution.
func ExecuteWith(sys *System, rounds int, opts ExecuteOpts) (*Run, error) {
	return ExecuteCtx(context.Background(), sys, rounds, opts)
}

// ExecuteCtx is ExecuteWith with a cancellation/deadline path: the
// context is checked at every round boundary, and a done context stops
// the execution with a typed *ExecError wrapping ctx.Err() (plus the
// partial run recorded so far). The round count remains the execution's
// hard budget; the context bounds wall time across rounds. A device that
// loops forever *inside a single Step* cannot be interrupted here — Go
// cannot preempt a goroutine — so wall-clock watchdogs live one layer up,
// in the sweep engine's Isolated pool.
//
// Device panics in any entry point (Step, Snapshot, Output) are caught
// and returned as a *DeviceFault error attributing the panic to its node,
// round, and operation; the rest of the failing round still executes (and
// is recorded in full mode) so the partial run is diagnosable.
//
// When every device is fingerprintable (see Fingerprinter) and the run
// cache is enabled, the execution is memoized: a repeat of the same
// (graph, devices, inputs, rounds, opts) returns the previously recorded
// Run without stepping any device, and concurrent repeats share a single
// in-flight execution. Two consequences follow. First, the system must
// be freshly built — NewSystem-fresh devices that have never stepped —
// since the key cannot see accumulated device state; every call site in
// the engine already works this way (re-executing a stepped system was
// never meaningful). Second, cancellable contexts bypass the cache, so
// one caller's cancellation can never be replayed to another.
//
// When a tracer is installed (internal/obs), each execution is wrapped
// in a "sim.execute" span recording the system shape, how the cache
// served it (hit / wait / disk / miss / bypass / uncacheable), the
// decision count, and — in full recording mode — the run's message and
// byte totals, and it ticks the sim.exec and sim.cache counters of
// trace.go. Without a tracer none of that work is done: ExecuteCtx
// allocates exactly what the executor does
// (TestExecuteUntracedAllocsLikeExecutor).
func ExecuteCtx(ctx context.Context, sys *System, rounds int, opts ExecuteOpts) (*Run, error) {
	var start time.Time
	var sp *obs.Span
	if obs.Enabled() {
		start = time.Now()
		ctx, sp = obs.StartSpan(ctx, "sim.execute",
			obs.Int("nodes", sys.G.N()),
			obs.Int("rounds", rounds),
			obs.Bool("snapshots", opts.RecordSnapshots),
			obs.Bool("edges", opts.RecordEdges))
	}

	cache := "bypass" // cancellable context or cache disabled
	var key string
	cacheable := false
	if ctx.Done() == nil && runcache.Enabled() {
		if key, cacheable = systemKey(sys, rounds, opts); !cacheable {
			cache = "uncacheable" // some device opted out of fingerprinting
		}
	}
	var run *Run
	var err error
	if cacheable {
		var v any
		var how runcache.How
		v, how, err = runCache.Do(key, func() (any, error) {
			return executeCore(ctx, sys, rounds, opts, true)
		})
		run, _ = v.(*Run)
		cache = how.String() // miss / hit / wait / disk
	} else {
		run, err = executeCore(ctx, sys, rounds, opts, false)
	}

	if sp != nil {
		switch cache {
		case "hit":
			mCacheHit.Inc()
		case "wait":
			mCacheWait.Inc()
		case "disk":
			mCacheDisk.Inc()
		case "miss":
			mCacheMiss.Inc()
		default: // bypass and uncacheable
			mCacheBypass.Inc()
		}
		sp.SetAttrs(obs.Str("cache", cache))
		mExecRuns.Inc()
		hExecDur.Observe(uint64(time.Since(start) / time.Microsecond))
		if err != nil {
			mExecErrors.Inc()
			sp.SetAttrs(obs.Str("error", err.Error()))
		}
		if run != nil {
			decided := 0
			for _, d := range run.Decisions {
				if d.Value != "" {
					decided++
				}
			}
			sp.SetAttrs(obs.Int("decided", decided))
			if run.Edges != nil {
				st := CollectStats(run)
				sp.SetAttrs(obs.Int("messages", st.Messages), obs.Int("bytes", st.Bytes))
			}
		}
		sp.End()
	}
	return run, err
}

// executeCore is the actual executor. cached reports that the run cache
// will retain the run, which is what makes interning its strings pay.
func executeCore(ctx context.Context, sys *System, rounds int, opts ExecuteOpts, cached bool) (*Run, error) {
	g := sys.G
	n := g.N()
	run := &Run{
		G:         g,
		Rounds:    rounds,
		Inputs:    append([]Input(nil), sys.Inputs...),
		Decisions: make([]Decision, n),
	}
	if opts.RecordSnapshots {
		run.Snapshots = make([][]string, n)
		snapBuf := make([]string, n*rounds)
		for u := 0; u < n; u++ {
			run.Snapshots[u] = snapBuf[u*rounds : (u+1)*rounds : (u+1)*rounds]
		}
	}

	// Port tables, resolved once per execution. Node u's ports are the
	// slots off[u]..off[u+1]-1, in port order; slot off[u]+i is both u's
	// inbox entry for port i and u's outedge to that neighbor. route[e]
	// is the slot at which outedge e's payload is received.
	ports := make([][]int, n)
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		ports[u] = portOrder(g, u)
		off[u+1] = off[u] + len(ports[u])
	}
	totalDeg := off[n]
	route := make([]int, totalDeg)
	// Visiting senders in name order hands each receiver its senders in
	// its own port order, so the k-th visit to v is v's port k.
	byName := make([]int, n)
	for u := range byName {
		byName[u] = u
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(g.Name(a), g.Name(b)) })
	next := make([]int, n)
	for _, u := range byName {
		for i, v := range ports[u] {
			route[off[u]+i] = off[v] + next[v]
			next[v]++
		}
	}
	var seqs [][]Payload // seqs[e] = the edge behavior of outedge e (full recording only)
	if opts.RecordEdges {
		run.Edges = make(map[graph.Edge][]Payload, totalDeg)
		seqs = make([][]Payload, totalDeg)
		edgeBuf := make([]Payload, totalDeg*rounds)
		for u := 0; u < n; u++ {
			for i, v := range ports[u] {
				e := off[u] + i
				seqs[e] = edgeBuf[e*rounds : (e+1)*rounds : (e+1)*rounds]
				run.Edges[graph.Edge{From: g.Name(u), To: g.Name(v)}] = seqs[e]
			}
		}
	}

	// A ring of mailboxes (delivery round x receiving slot). Synchronous
	// delivery needs a window of 2 (the classic current/next double
	// buffer); a delay schedule widens the window to maxExtra+2 so a
	// message sent in round r with extra delay e <= maxExtra lands in
	// mailbox (r+1+e) mod window — always a future mailbox distinct from
	// the one being read, and read exactly once, at round r+1+e.
	// Mailboxes are wiped right after their read round, so the mailbox
	// observed at round d is exactly the sends targeted at d. Each
	// device's inbox is its own window of the current mailbox.
	delays, maxExtra := opts.Delays.compile(g, ports, off)
	window := maxExtra + 2
	// Async message accounting (sim.async.* counters): only ever non-nil
	// for a traced delay-schedule execution, so the synchronous hot path
	// pays one nil check per dispatch and nothing else.
	var acct *asyncAcct
	if delays != nil && obs.Enabled() {
		acct = &asyncAcct{}
		defer acct.flush()
	}
	ring := make([]Payload, window*totalDeg)

	// Per-execution intern tables for the retained strings of a full
	// recording. Devices re-emit equal payloads and snapshots round after
	// round (a decided device's state stops changing; broadcasts repeat);
	// interning makes the recorded Run retain one canonical copy of each
	// distinct string so the duplicates become garbage within the round
	// that produced them instead of living as long as the run does —
	// which, with the run cache, is the life of the process. Fast mode
	// retains neither, and runs the cache does not keep die with their
	// caller, so only cached full recordings pay the table's hash costs —
	// for large payloads (signature chains) those are O(bytes) per
	// delivery and would otherwise tax runs that gain nothing from them.
	var internSnap map[string]string
	var internPay map[Payload]Payload
	if cached {
		if opts.RecordSnapshots {
			internSnap = make(map[string]string, 2*n)
		}
		if opts.RecordEdges {
			internPay = make(map[Payload]Payload, 4*n)
		}
	}

	for r := 0; r < rounds; r++ {
		if cancelErr := cancelCheck(ctx, r); cancelErr != nil {
			return run, cancelErr
		}
		var roundErr error
		cur := ring[(r%window)*totalDeg : (r%window+1)*totalDeg]
		for u := 0; u < n; u++ {
			lo, hi := off[u], off[u+1]
			inbox := Inbox(cur[lo:hi:hi])
			if acct != nil {
				for _, p := range inbox {
					if p != None {
						acct.delivered++
					}
				}
			}
			out, fault := safeStep(sys.Devices[u], g.Name(u), r, inbox)
			if fault != nil && roundErr == nil {
				roundErr = fault
			}
			if out != nil && len(out) != hi-lo {
				if roundErr == nil {
					roundErr = execRuleError(g.Name(u), r,
						"sim: node %s returned an outbox of length %d in round %d, want one entry per port (%d)",
						g.Name(u), len(out), r, hi-lo)
				}
				out = nil // deliver nothing rather than a guess
			}
			for i, payload := range out {
				if payload == None {
					continue
				}
				e := lo + i
				if seqs != nil {
					if internPay != nil {
						if c, ok := internPay[payload]; ok {
							payload = c
						} else {
							internPay[payload] = payload
						}
					}
					seqs[e][r] = payload
				}
				deliver := r + 1
				if delays != nil {
					extra := delays[delaySlot{edge: e, round: r}]
					deliver += extra
					if acct != nil {
						acct.sent++
						if extra > 0 {
							acct.delayed++
						}
						switch {
						case deliver >= rounds:
							acct.lost++
						case ring[(deliver%window)*totalDeg+route[e]] != None:
							// This send lands on a slot still holding an
							// undelivered earlier message on the same
							// edge: the overwritten one is the casualty.
							acct.collided++
						}
					}
				}
				if deliver < rounds {
					ring[(deliver%window)*totalDeg+route[e]] = payload
				}
			}
			if opts.RecordSnapshots {
				snap, snapFault := safeSnapshot(sys.Devices[u], g.Name(u), r)
				if snapFault != nil && roundErr == nil {
					roundErr = snapFault
				}
				if internSnap != nil {
					if c, ok := internSnap[snap]; ok {
						snap = c
					} else {
						internSnap[snap] = snap
					}
				}
				run.Snapshots[u][r] = snap
			}
			d, ok, outFault := safeOutput(sys.Devices[u], g.Name(u), r)
			if outFault != nil && roundErr == nil {
				roundErr = outFault
			}
			if ok {
				if run.Decisions[u].Value != "" && run.Decisions[u].Value != d.Value {
					if roundErr == nil {
						roundErr = execRuleError(g.Name(u), r,
							"sim: node %s changed its decision from %q to %q",
							g.Name(u), run.Decisions[u].Value, d.Value)
					}
				} else if run.Decisions[u].Value == "" {
					run.Decisions[u] = Decision{Value: d.Value, Round: r}
				}
			}
		}
		if roundErr != nil {
			// Every node of the failing round has stepped and (in full
			// mode) been snapshotted; return the diagnosable partial run.
			return run, roundErr
		}
		// The mailbox just read becomes the one for round r+window; wipe
		// it so stale payloads never resurface.
		clear(cur)
	}
	return run, nil
}

// MustExecute is Execute for known-good systems; it panics on error. The
// panic value is always a *ExecError carrying node/round context, so a
// recovery layer (e.g. the sweep engine's Isolated pool) can tell an
// engine-reported failure apart from an arbitrary device panic: device
// faults remain reachable through errors.As as a *DeviceFault cause.
func MustExecute(sys *System, rounds int) *Run {
	run, err := Execute(sys, rounds)
	if err != nil {
		var ee *ExecError
		if errors.As(err, &ee) {
			panic(ee)
		}
		var df *DeviceFault
		if errors.As(err, &df) {
			panic(&ExecError{Node: df.Node, Round: df.Round, Err: df})
		}
		panic(&ExecError{Round: -1, Err: err})
	}
	return run
}

// EdgeBehavior returns the payload sequence carried by the directed edge,
// or an error if the edge does not exist in the run's graph.
func (r *Run) EdgeBehavior(from, to string) ([]Payload, error) {
	seq, ok := r.Edges[graph.Edge{From: from, To: to}]
	if !ok {
		return nil, fmt.Errorf("sim: run has no edge %s->%s", from, to)
	}
	return seq, nil
}

// DecisionOf returns the decision of the named node.
func (r *Run) DecisionOf(name string) (Decision, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return Decision{}, fmt.Errorf("sim: run has no node %q", name)
	}
	return r.Decisions[u], nil
}

// SnapshotsOf returns the snapshot sequence of the named node.
func (r *Run) SnapshotsOf(name string) ([]string, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return nil, fmt.Errorf("sim: run has no node %q", name)
	}
	if r.Snapshots == nil {
		return nil, fmt.Errorf("sim: run recorded no snapshots (fast mode)")
	}
	return r.Snapshots[u], nil
}

// String summarizes decisions, for debugging and reports.
func (r *Run) String() string {
	var b strings.Builder
	for u := 0; u < r.G.N(); u++ {
		d := r.Decisions[u]
		if d.Value == "" {
			fmt.Fprintf(&b, "%s: undecided\n", r.G.Name(u))
		} else {
			fmt.Fprintf(&b, "%s: %s @r%d\n", r.G.Name(u), d.Value, d.Round)
		}
	}
	return b.String()
}
