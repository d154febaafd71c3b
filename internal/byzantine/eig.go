// Package byzantine implements Byzantine agreement devices: the
// exponential-information-gathering (EIG) protocol of Pease, Shostak and
// Lamport (optimal: n >= 3f+1, f+1 communication rounds), the polynomial
// phase-king protocol of Berman and Garay (n >= 4f+1), and a panel of
// naive devices that the FLM85 impossibility engine defeats on inadequate
// graphs. It also provides the Byzantine agreement correctness conditions
// as checkable predicates.
package byzantine

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/sim"
)

// DefaultValue is the value adopted on ties and missing data; any fixed
// value works for the agreement proofs.
const DefaultValue = "0"

// NewEIG returns a builder for EIG devices tolerating f faults among the
// given peer set (which must include every node of the complete
// communication graph, including the device's own node).
//
// The builder hoists everything fixed across a sweep: the sorted peer
// set, the device fingerprint, and the flat tree shape (level offsets,
// interned label strings, per-slot membership masks), all shared by every
// device it constructs. The builder panics on a peer set the flat tree
// cannot index (see eigShapeFor) and on a self or neighbor outside the
// peer set; sim.NewSystem reports either as a *sim.DeviceFault with Op
// sim.OpBuild.
func NewEIG(f int, peers []string) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	fp := fmt.Sprintf("byz/eig:f=%d,peers=%s", f, strings.Join(sorted, ","))
	shape, err := eigShapeFor(f, sorted, fp)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		if err != nil {
			panic(err)
		}
		d := &eigFlatDevice{shape: shape}
		d.init(self, sortedNames(neighbors), input)
		return d
	}
}

// sortedNames returns a sorted copy of names without re-sorting input
// that is already ordered — the simulator always hands builders sorted
// neighbor lists, so device construction inside a sweep skips the
// redundant sort.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	if !sort.StringsAreSorted(out) {
		sort.Strings(out)
	}
	return out
}

// sanitizeValue keeps values within the claim-encoding alphabet; anything
// containing a delimiter is replaced by the default (a Byzantine sender
// cannot smuggle structure into honest relays).
func sanitizeValue(v string) string {
	if v == "" || strings.ContainsAny(v, ";=/") {
		return DefaultValue
	}
	return v
}

// EIGRounds returns the number of simulator rounds an EIG run needs:
// f+1 communication rounds plus the deciding step.
func EIGRounds(f int) int { return f + 2 }
