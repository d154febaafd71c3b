package main

import (
	"fmt"
	"os"

	"flm"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"prove", "prove-warm", "census", "chaos"}

// newWorkload returns the named workload for a seed. workdir is the
// directory private temporary files (the warm store) are created in.
func newWorkload(name string, seed int64, workdir string) (workload, error) {
	switch name {
	case "prove":
		return &proveWorkload{seed: seed, ref: map[string]string{}}, nil
	case "prove-warm":
		return &proveWorkload{seed: seed, warm: true, workdir: workdir, ref: map[string]string{}}, nil
	case "census":
		return &censusWorkload{seed: seed}, nil
	case "chaos":
		return &chaosWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// coldPrecheck is the hermetic precondition of every cold workload: no
// disk tier, empty L1 run and splice caches.
func coldPrecheck() error {
	if dir := flm.RunCacheDir(); dir != "" {
		return fmt.Errorf("disk tier installed at %s in a cold workload", dir)
	}
	return emptyCaches()
}

func emptyCaches() error {
	if n := flm.RunCacheStats().Entries; n != 0 {
		return fmt.Errorf("run cache holds %d entries after reset", n)
	}
	if n := flm.SpliceCacheStats().Entries; n != 0 {
		return fmt.Errorf("splice cache holds %d entries after reset", n)
	}
	return nil
}

// proveWorkload is prove, or prove-warm with warm set: the same op
// stream with the run cache's disk tier on a private store that set-up
// fills by running the stream once cold.
type proveWorkload struct {
	seed    int64
	warm    bool
	workdir string
	ops     []op
	// ref holds each op kind's reference verdict: from the warm-up pass
	// (prove) or the cold pass that fills the store (prove-warm). Every
	// later run of the op, warm or traced, must reproduce it.
	ref     map[string]string
	store   string
	restore func()
}

func (w *proveWorkload) setup(h *harness) error {
	w.close()
	err := h.timeSetupStep(func() (err error) {
		var cat []proof
		h.graphCall(func() { cat = proofCatalogue(newRNG(w.seed, 1)) })
		w.ops, err = proveOps(cat, w.ref)
		return err
	})
	if err != nil {
		return err
	}
	if w.warm {
		if err := os.MkdirAll(w.workdir, 0o755); err != nil {
			return err
		}
		if w.store, err = os.MkdirTemp(w.workdir, "warm-store-"); err != nil {
			return err
		}
		if w.restore, err = flm.SetRunCacheDir(w.store); err != nil {
			return err
		}
		h.setupPass(w.order(-1))
	}
	h.setupPass(w.order(-2))
	return nil
}

// order returns the ops in pass k's seeded order.
func (w *proveWorkload) order(k int) []op {
	p := newRNG(w.seed, 2, int64(k)).perm(len(w.ops))
	out := make([]op, len(p))
	for i, j := range p {
		out[i] = w.ops[j]
	}
	return out
}

func (w *proveWorkload) pass(k int) []op { return w.order(k) }

func (w *proveWorkload) precheck() error {
	if !w.warm {
		return coldPrecheck()
	}
	if dir := flm.RunCacheDir(); dir != w.store {
		return fmt.Errorf("disk tier at %q, want the private store %q", dir, w.store)
	}
	return emptyCaches()
}

func (w *proveWorkload) close() {
	if w.restore != nil {
		w.restore()
		w.restore = nil
	}
	if w.store != "" {
		os.RemoveAll(w.store)
		w.store = ""
	}
}
