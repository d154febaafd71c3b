package clocksync

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// midpointSnapshotReference and trimmedSnapshotReference are the
// averaging devices' Snapshot bodies as first written: sort the keys of
// last, then format and concatenate. The devices now append the same
// bytes into a reused buffer in neighbor order; these are the oracle of
// the equivalence test below. Lemma 9 compares snapshots, so the two
// must stay byte-identical.
func midpointSnapshotReference(d *midpointDevice) string {
	keys := make([]string, 0, len(d.last))
	for k := range d.last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("mid(corr=%s)", d.corr.RatString())
	for _, k := range keys {
		s += "|" + k + "=" + d.last[k].RatString()
	}
	return s
}

func trimmedSnapshotReference(d *trimmedDevice) string {
	keys := make([]string, 0, len(d.last))
	for k := range d.last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("trim(f=%d,corr=%s)", d.f, d.corr.RatString())
	for _, k := range keys {
		s += "|" + k + "=" + d.last[k].RatString()
	}
	return s
}

// randomReading is a payload a neighbor might send: an integer, a
// fraction (negative, unreduced, or with a numerator past int64), or
// garbage the device must ignore.
func randomReading(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprint(rng.Int63n(2000) - 1000)
	case 1, 2:
		return fmt.Sprintf("%d/%d", rng.Int63n(20000)-10000, 1+rng.Int63n(999))
	case 3:
		return fmt.Sprintf("%d%018d/%d", 1+rng.Int63n(9), rng.Int63(), 1+rng.Int63n(1<<40))
	case 4:
		return []string{"", "x", "1/0", "--3", "1/2/3", "0x1g"}[rng.Intn(6)]
	default:
		return fmt.Sprintf("%d/%d", rng.Int63n(7)*6, 6)
	}
}

// TestAveragingSnapshotsMatchReference drives midpoint and trimmed
// devices (f = 0 and 1) through 200 random tick sequences and compares
// every Snapshot with the reference encoding. The neighbor lists are
// handed over unsorted, some neighbors never report, and payloads mix
// integers, fractions, values past int64 and garbage. Senders are always
// neighbors, as the timed executor guarantees.
func TestAveragingSnapshotsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pool := []string{"p7", "p0", "q", "p10", "a", "p2", "zz", "p1"}
	for seq := 0; seq < 200; seq++ {
		nbs := append([]string(nil), pool[:1+rng.Intn(len(pool))]...)
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		silent := map[string]bool{}
		for _, nb := range nbs {
			silent[nb] = rng.Intn(4) == 0
		}
		l := clockfn.Identity()
		mid := NewMidpoint(l)("self", nbs).(*midpointDevice)
		f := seq % 2
		trim := NewTrimmedMidpoint(l, f)("self", nbs).(*trimmedDevice)
		check := func(tick int) {
			t.Helper()
			if got, want := mid.Snapshot(), midpointSnapshotReference(mid); got != want {
				t.Fatalf("sequence %d tick %d: midpoint Snapshot\n got %q\nwant %q", seq, tick, got, want)
			}
			if got, want := trim.Snapshot(), trimmedSnapshotReference(trim); got != want {
				t.Fatalf("sequence %d tick %d (f=%d): trimmed Snapshot\n got %q\nwant %q", seq, tick, f, got, want)
			}
		}
		check(-1)
		hw := clockfn.NewQ(rng.Int63n(100), 1+rng.Int63n(9))
		ticks := 1 + rng.Intn(30)
		for tick := 0; tick < ticks; tick++ {
			var inbox []timedsim.Message
			for _, nb := range nbs {
				if !silent[nb] && rng.Intn(3) > 0 {
					inbox = append(inbox, timedsim.Message{From: nb, Payload: randomReading(rng)})
				}
			}
			mid.Tick(tick, hw, inbox)
			trim.Tick(tick, hw, inbox)
			check(tick)
			hw = hw.Add(clockfn.NewQ(1+rng.Int63n(5), 1+rng.Int63n(4)))
		}
	}
}
