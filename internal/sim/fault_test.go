package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"flm/internal/graph"
)

// panicDevice panics in the configured operation at the configured round.
type panicDevice struct {
	op       string
	atRound  int
	round    int
	panicked bool
}

func (d *panicDevice) Init(self string, neighbors []string, input Input) {}

func (d *panicDevice) Step(round int, inbox Inbox) Outbox {
	d.round = round
	if d.op == OpStep && round == d.atRound {
		panic("kaboom")
	}
	return nil
}

func (d *panicDevice) Snapshot() string {
	if d.op == OpSnapshot && d.round == d.atRound {
		panic("snap-boom")
	}
	return "panicdev"
}

func (d *panicDevice) Output() (Decision, bool) {
	if d.op == OpOutput && d.round == d.atRound {
		panic("out-boom")
	}
	return Decision{}, false
}

// quietBuilder installs devices that never send and never decide.
func quietBuilder() Builder {
	return func(self string, neighbors []string, input Input) Device {
		return NewReplayDevice(nil)
	}
}

func faultSystem(t *testing.T, badNode, op string, atRound int) *System {
	t.Helper()
	g := graph.Triangle()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		name := name
		p.Inputs[name] = BoolInput(false)
		if name == badNode {
			p.Builders[name] = func(self string, neighbors []string, input Input) Device {
				return &panicDevice{op: op, atRound: atRound}
			}
		} else {
			p.Builders[name] = quietBuilder()
		}
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDevicePanicBecomesDeviceFault(t *testing.T) {
	for _, op := range []string{OpStep, OpSnapshot, OpOutput} {
		sys := faultSystem(t, "b", op, 2)
		run, err := Execute(sys, 5)
		if err == nil {
			t.Fatalf("%s: panic not surfaced", op)
		}
		var df *DeviceFault
		if !errors.As(err, &df) {
			t.Fatalf("%s: error %v is not a *DeviceFault", op, err)
		}
		if df.Node != "b" || df.Round != 2 || df.Op != op {
			t.Errorf("%s: fault attributed to node=%s round=%d op=%s, want b/2/%s",
				op, df.Node, df.Round, df.Op, op)
		}
		if len(df.Stack) == 0 {
			t.Errorf("%s: fault carries no stack", op)
		}
		if run == nil {
			t.Errorf("%s: no partial run returned", op)
		}
	}
}

func TestBuilderPanicBecomesDeviceFault(t *testing.T) {
	g := graph.Triangle()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		name := name
		p.Inputs[name] = BoolInput(false)
		if name == "c" {
			p.Builders[name] = func(self string, neighbors []string, input Input) Device {
				panic("cannot construct")
			}
		} else {
			p.Builders[name] = quietBuilder()
		}
	}
	_, err := NewSystem(g, p)
	var df *DeviceFault
	if !errors.As(err, &df) {
		t.Fatalf("builder panic yielded %v, want *DeviceFault", err)
	}
	if df.Node != "c" || df.Op != OpBuild || df.Round != -1 {
		t.Errorf("fault = %+v, want node c, op build, round -1", df)
	}
}

func TestPanicPartialRunRecordsFailingRound(t *testing.T) {
	sys := faultSystem(t, "a", OpStep, 1)
	run, err := Execute(sys, 4)
	var df *DeviceFault
	if !errors.As(err, &df) {
		t.Fatalf("got %v", err)
	}
	// Full recording: the failing round is snapshotted for every node,
	// with the panicking device marked.
	snaps, serr := run.SnapshotsOf("b")
	if serr != nil {
		t.Fatal(serr)
	}
	if snaps[1] == "" {
		t.Error("failing round not snapshotted for healthy node b")
	}
}

func TestMustExecutePanicsTyped(t *testing.T) {
	cases := []struct {
		name    string
		sys     *System
		node    string
		round   int
		device  bool // expect a *DeviceFault cause
		message string
	}{
		{name: "device fault", sys: faultSystem(t, "b", OpStep, 0), node: "b", round: 0, device: true},
		{name: "rule violation", sys: badSendSystem(t), node: "a", round: 0, message: "outbox of length 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("MustExecute did not panic")
				}
				ee, ok := r.(*ExecError)
				if !ok {
					t.Fatalf("panic value %T is not *ExecError", r)
				}
				if ee.Node != tc.node || ee.Round != tc.round {
					t.Errorf("panic attributed to %s/%d, want %s/%d", ee.Node, ee.Round, tc.node, tc.round)
				}
				var df *DeviceFault
				if got := errors.As(ee, &df); got != tc.device {
					t.Errorf("device-fault cause = %v, want %v", got, tc.device)
				}
				if tc.message != "" && !strings.Contains(ee.Error(), tc.message) {
					t.Errorf("message %q missing %q", ee.Error(), tc.message)
				}
			}()
			MustExecute(tc.sys, 3)
		})
	}
}

// badSendSystem has node a return an outbox one entry longer than its
// degree in round 0.
func badSendSystem(t *testing.T) *System {
	t.Helper()
	g := graph.Triangle()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		name := name
		p.Inputs[name] = BoolInput(false)
		if name == "a" {
			p.Builders[name] = func(self string, neighbors []string, input Input) Device {
				return &badSender{}
			}
		} else {
			p.Builders[name] = quietBuilder()
		}
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

type badSender struct{}

func (d *badSender) Init(self string, neighbors []string, input Input) {}

// Step returns one outbox entry more than the device has ports.
func (d *badSender) Step(round int, inbox Inbox) Outbox {
	out := make(Outbox, len(inbox)+1)
	out[0] = "hi"
	return out
}
func (d *badSender) Snapshot() string         { return "badsender" }
func (d *badSender) Output() (Decision, bool) { return Decision{}, false }

func TestExecuteCtxCancellation(t *testing.T) {
	g := graph.Triangle()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = quietBuilder()
		p.Inputs[name] = BoolInput(false)
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: the very first round boundary must stop
	run, err := ExecuteCtx(ctx, sys, 100, FullRecording)
	if err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("cancellation error %v is not *ExecError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause %v does not unwrap to context.Canceled", err)
	}
	if run == nil {
		t.Error("no partial run on cancellation")
	}
}

func TestExecuteCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline definitely pass
	g := graph.Triangle()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = quietBuilder()
		p.Inputs[name] = BoolInput(false)
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteCtx(ctx, sys, 10, ExecuteOpts{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
}
