// Package obsfix exercises flmobscost: attr construction for the obs
// layer must be dominated by an obs.Enabled()/nil-handle guard.
package obsfix

import (
	"context"
	"fmt"

	"flm/internal/obs"
)

// workerObs models the per-call observability bundle convention: a
// pointer to a type named *Obs is only non-nil when tracing is on.
type workerObs struct{ trials int }

func unguarded(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "x", obs.Int("n", 1)) // want `obs\.StartSpan builds 1 attr\(s\) outside an obs\.Enabled\(\) guard`
	sp.SetAttrs(obs.Int("m", 2))                      // want `Span\.SetAttrs builds 1 attr\(s\) outside`
	obs.Event(ctx, "y", obs.Str("k", "v"))            // want `obs\.Event builds 1 attr\(s\) outside`
	obs.Event(ctx, fmt.Sprintf("name-%d", 1))         // want `obs\.Event computes its name outside`
	sp.End()
}

func zeroAttrLiteralName(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "cheap") // no attrs, literal name: the callee's own check suffices
	obs.Event(ctx, "cheap")
	sp.End()
}

func guardedLexically(ctx context.Context) {
	if obs.Enabled() {
		_, sp := obs.StartSpan(ctx, "x", obs.Int("n", 1))
		sp.SetAttrs(obs.Str("k", "v"))
		sp.End()
	}
}

func guardedByBool(ctx context.Context) {
	traced := obs.Enabled()
	if traced {
		obs.Event(ctx, "e", obs.Int("n", 1))
	}
	if !traced {
		return
	}
	obs.Event(ctx, "tail", obs.Int("n", 2)) // everything after the early return is traced
}

func guardedByNilSpan(ctx context.Context, sp *obs.Span) {
	if sp != nil {
		sp.SetAttrs(obs.Int("n", 1))
	}
	if sp == nil {
		return
	}
	sp.SetAttrs(obs.Int("n", 2))
}

func guardedByObsBundle(ctx context.Context, wo *workerObs) {
	if wo == nil {
		return
	}
	obs.Event(ctx, "bundle", obs.Int("trials", wo.trials)) // *workerObs nil check is a guard by convention
}

func guardedClosure(ctx context.Context) {
	if obs.Enabled() {
		emit := func() {
			obs.Event(ctx, "inner", obs.Int("n", 1)) // closure built inside the guard inherits it
		}
		emit()
	}
}

// annotatedHelper declares the only-called-when-traced contract the
// analyzer cannot see across functions.
//
//flmlint:allow flmobscost fixture: every call site checks obs.Enabled() first
func annotatedHelper(ctx context.Context) {
	obs.Event(ctx, "helper", obs.Int("n", 1))
}
