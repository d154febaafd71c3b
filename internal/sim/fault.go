// Fault isolation for the executor. The paper's Fault axiom lets a faulty
// node behave arbitrarily, and this repository invites callers to plug
// arbitrary Device implementations into Execute — including ones that
// panic. This file converts those panics into structured, attributable
// errors instead of letting them kill the process, and gives the
// executor's own rule violations a typed shape so callers (and the sweep
// engine's recovery layer) can distinguish a buggy device from a buggy
// engine invocation.
package sim

import (
	"context"
	"fmt"
	"runtime/debug"
)

// Operation names recorded in a DeviceFault, identifying which device
// entry point panicked.
const (
	OpBuild    = "build"    // the Builder call (includes the device's Init)
	OpStep     = "step"     // Device.Step
	OpSnapshot = "snapshot" // Device.Snapshot
	OpOutput   = "output"   // Device.Output
)

// DeviceFault is a panic raised by a user-supplied device, caught at the
// executor boundary and converted into an error. It carries everything
// needed to attribute the fault: the node the device was installed at,
// the round being executed (-1 for construction-time faults), the device
// entry point that panicked, the recovered panic value, and the stack at
// the recovery point.
type DeviceFault struct {
	Node  string
	Round int    // -1 when the fault happened before round 0 (build/init)
	Op    string // one of OpBuild, OpStep, OpSnapshot, OpOutput
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured inside the recover
}

func (f *DeviceFault) Error() string {
	if f.Round < 0 {
		return fmt.Sprintf("sim: device at node %s panicked in %s: %v", f.Node, f.Op, f.Value)
	}
	return fmt.Sprintf("sim: device at node %s panicked in %s (round %d): %v",
		f.Node, f.Op, f.Round, f.Value)
}

// ExecError is a typed execution failure detected by the executor itself:
// a protocol-rule violation (an outbox whose length is not the node's
// degree, a changed decision), a device fault, or a cancelled context.
// Node and Round locate the failure; both are best-effort ("" / -1 when
// the failure is not attributable to a single node, e.g. cancellation
// between rounds).
//
// MustExecute panics with an *ExecError, so recovery layers can
// distinguish engine-reported failures (errors.As yields *ExecError)
// from arbitrary device panics (errors.As yields *DeviceFault via
// Unwrap, or no typed error at all).
type ExecError struct {
	Node  string
	Round int
	Err   error
}

func (e *ExecError) Error() string {
	if e.Err == nil {
		return "sim: execution failed"
	}
	return e.Err.Error()
}

func (e *ExecError) Unwrap() error { return e.Err }

// execRuleError builds the typed form of an executor rule violation while
// keeping the historical message text.
func execRuleError(node string, round int, format string, args ...any) *ExecError {
	return &ExecError{Node: node, Round: round, Err: fmt.Errorf(format, args...)}
}

// safeBuild runs a Builder under recover, attributing a panic to the node
// the device was being constructed for.
func safeBuild(b Builder, self string, neighbors []string, input Input) (d Device, fault *DeviceFault) {
	defer func() {
		if r := recover(); r != nil {
			fault = &DeviceFault{Node: self, Round: -1, Op: OpBuild, Value: r, Stack: debug.Stack()}
		}
	}()
	return b(self, neighbors, input), nil
}

// safeStep runs Device.Step under recover. A panicking device sends
// nothing in the failing round.
func safeStep(d Device, node string, round int, inbox Inbox) (out Outbox, fault *DeviceFault) {
	defer func() {
		if r := recover(); r != nil {
			out, fault = nil, &DeviceFault{Node: node, Round: round, Op: OpStep, Value: r, Stack: debug.Stack()}
		}
	}()
	return d.Step(round, inbox), nil
}

// safeSnapshot runs Device.Snapshot under recover, substituting a marker
// snapshot so the partial run stays diagnosable.
func safeSnapshot(d Device, node string, round int) (snap string, fault *DeviceFault) {
	defer func() {
		if r := recover(); r != nil {
			snap = "<panic>"
			fault = &DeviceFault{Node: node, Round: round, Op: OpSnapshot, Value: r, Stack: debug.Stack()}
		}
	}()
	return d.Snapshot(), nil
}

// safeOutput runs Device.Output under recover.
func safeOutput(d Device, node string, round int) (dec Decision, ok bool, fault *DeviceFault) {
	defer func() {
		if r := recover(); r != nil {
			dec, ok = Decision{}, false
			fault = &DeviceFault{Node: node, Round: round, Op: OpOutput, Value: r, Stack: debug.Stack()}
		}
	}()
	d2, ok2 := d.Output()
	return d2, ok2, nil
}

// cancelCheck returns the typed cancellation error for a context that is
// done, or nil. The background context short-circuits without an
// interface call on the hot path.
func cancelCheck(ctx context.Context, round int) *ExecError {
	if ctx == context.Background() {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &ExecError{Round: round, Err: fmt.Errorf("sim: execution cancelled before round %d: %w", round, err)}
	}
	return nil
}
