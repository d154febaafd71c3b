package clocksync

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// midpointSnapshotReference and trimmedSnapshotReference are the
// averaging devices' Snapshot bodies as first written: sort the keys of
// last, then format every value with big.Rat.RatString and concatenate.
// The devices append the same bytes into a reused buffer in neighbor
// order, each reading as the text it arrived in when that text is
// canonical. Lemma 9 compares snapshots, so the two must stay
// byte-identical.
func midpointSnapshotReference(d *ratMidpointDevice) string {
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

func trimmedSnapshotReference(d *ratTrimmedDevice) string {
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

// randomReading is a payload a neighbor might send: a plain integer, a
// plain dyadic or non-dyadic fraction, one with a numerator or a
// denominator past one word, an unreduced form, or garbage that both the
// devices and their oracle must ignore.
func randomReading(rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprint(rng.Int63n(2000) - 1000)
	case 1:
		return fmt.Sprintf("%d/%d", rng.Int63n(20000)-10000, int64(1)<<(1+rng.Intn(62)))
	case 2:
		return fmt.Sprintf("%d/%d", rng.Int63n(20000)-10000, 1+rng.Int63n(999))
	case 3:
		return fmt.Sprintf("%d%018d/%d", 1+rng.Int63n(9), rng.Int63(), 1+rng.Int63n(1<<40))
	case 4:
		return fmt.Sprintf("%d/%d%019d", 2*rng.Int63n(500)+1, 1+rng.Int63n(9), rng.Int63())
	case 5:
		return []string{"-0", "0/8", "6/4", "12/1", "-10/4", fmt.Sprintf("%d/6", rng.Int63n(7)*6)}[rng.Intn(6)]
	default:
		return []string{"", "x", "1/0", "--3", "1/2/3", "0x1g", "1/-2", "/", "-"}[rng.Intn(9)]
	}
}

// TestAveragingSnapshotsMatchReference drives midpoint and trimmed
// devices (f = 0 and 1) and their big.Rat oracles, whose Snapshot is the
// reference encoding, through 300 random tick sequences and compares
// every payload, every Snapshot and the bits of every Logical value. The
// neighbor lists are handed over unsorted, some neighbors never report,
// and hardware readings have denominators 1, 2 and 3. Senders are always
// neighbors, as the timed executor guarantees.
func TestAveragingSnapshotsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pool := []string{"p7", "p0", "q", "p10", "a", "p2", "zz", "p1"}
	l := clockfn.Identity()
	for seq := 0; seq < 300; seq++ {
		nbs := append([]string(nil), pool[:1+rng.Intn(len(pool))]...)
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		silent := map[string]bool{}
		for _, nb := range nbs {
			silent[nb] = rng.Intn(4) == 0
		}
		f := seq % 2
		pairs := []struct {
			name      string
			got, want timedsim.Device
		}{
			{"midpoint", NewMidpoint(l)("self", nbs), newRatMidpoint(l)("self", nbs)},
			{fmt.Sprintf("trimmed f=%d", f), NewTrimmedMidpoint(l, f)("self", nbs), newRatTrimmedMidpoint(l, f)("self", nbs)},
		}
		hw := clockfn.NewQ(rng.Int63n(100), 1+rng.Int63n(3))
		ticks := 1 + rng.Intn(40)
		for tick := -1; tick < ticks; tick++ {
			var inbox []timedsim.Message
			for _, nb := range nbs {
				if tick >= 0 && !silent[nb] && rng.Intn(3) > 0 {
					inbox = append(inbox, timedsim.Message{From: nb, Payload: randomReading(rng)})
				}
			}
			for _, p := range pairs {
				if tick >= 0 {
					got, want := p.got.Tick(tick, hw, inbox), p.want.Tick(tick, hw, inbox)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("sequence %d tick %d, %s: sends\n got %q\nwant %q", seq, tick, p.name, got, want)
					}
				}
				if got, want := p.got.Snapshot(), p.want.Snapshot(); got != want {
					t.Fatalf("sequence %d tick %d, %s: Snapshot\n got %q\nwant %q", seq, tick, p.name, got, want)
				}
				for _, at := range []clockfn.Q{hw, hw.Add(clockfn.NewQ(1, 3))} {
					if got, want := p.got.Logical(at), p.want.Logical(at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("sequence %d tick %d, %s: Logical(%s) = %v, want %v", seq, tick, p.name, at, got, want)
					}
				}
			}
			hw = hw.Add(clockfn.NewQ(1+rng.Int63n(5), 1+rng.Int63n(3)))
		}
	}
}

// TestAveragingDevicesIgnoreNonPlainReadings: a reading that is not a
// plain decimal is ignored, as garbage is, so a 9-byte payload cannot
// make a device hold and format a million-digit value. A plain reading
// of 1,000 digits is still read.
func TestAveragingDevicesIgnoreNonPlainReadings(t *testing.T) {
	l := clockfn.Identity()
	devices := map[string]Builder{"midpoint": NewMidpoint(l), "trimmed": NewTrimmedMidpoint(l, 0)}
	long := "9" + strings.Repeat("0", 999)
	for name, b := range devices {
		for _, reading := range []string{"1e999999", "-1e999999", "0x10", "0.5", "+5", "007", "1_0", long} {
			d := b("self", []string{"a", "b"})
			d.Tick(0, clockfn.NewQ(1, 2), []timedsim.Message{{From: "a", Payload: reading}, {From: "b", Payload: "3/2"}})
			snap := d.Snapshot()
			_, got, held := strings.Cut(snap, "|a=")
			if reading == long {
				if got, _, _ = strings.Cut(got, "|"); !held || got != long {
					t.Errorf("%s: a plain 1,000-digit reading was not read: snapshot %.80q", name, snap)
				}
				continue
			}
			if held || !strings.HasSuffix(snap, "|b=3/2") {
				t.Errorf("%s: reading %q was not ignored: snapshot %.80q", name, reading, snap)
			}
		}
	}
}

// TestChaseDeviceIgnoresNonPlainReadings: the chase device, too, reads
// a neighbor's reading only in the plain decimal form, so a 9-byte
// "1e999999" cannot become a million-digit lead that every later
// payload and snapshot carries. A plain reading of 1,000 digits is
// still read.
func TestChaseDeviceIgnoresNonPlainReadings(t *testing.T) {
	long := "9" + strings.Repeat("0", 999)
	for _, reading := range []string{"1e999999", "-1e999999", "0x10", "0.5", "+5", "007", "1_0", long} {
		d := NewChaseMax(clockfn.Identity())("self", []string{"a", "b"})
		sends := d.Tick(0, clockfn.NewQ(1, 2), []timedsim.Message{{From: "a", Payload: reading}, {From: "b", Payload: "3/2"}})
		want := "chase(ahead=1)" // b's lead over the hardware reading 1/2
		if reading == long {
			want = "chase(ahead=17" + strings.Repeat("9", 999) + "/2)" // 9·10^999 - 1/2
		}
		if got := d.Snapshot(); got != want {
			t.Errorf("reading %q: snapshot %.80q, want %.80q", reading, got, want)
		}
		if reading != long && (len(sends) != 2 || sends[0].Payload != "3/2") {
			t.Errorf("reading %q: sends %.80q, want the lead-corrected reading 3/2", reading, sends)
		}
	}
}

// TestTheorem8MatchesOracle runs Theorem 8's midpoint and trimmed rings
// with the devices and with their big.Rat oracles and requires the same
// recorded behavior: every send, every tick record (snapshot and logical
// clock included) and the same violations.
func TestTheorem8MatchesOracle(t *testing.T) {
	params := stdParams(1.5)
	l := params.L
	for _, tc := range []struct {
		name      string
		got, want Builder
	}{
		{"midpoint", NewMidpoint(l), newRatMidpoint(l)},
		{"trimmed f=0", NewTrimmedMidpoint(l, 0), newRatTrimmedMidpoint(l, 0)},
	} {
		got, err := Theorem8(params, triBuilders(tc.got))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Theorem8(params, triBuilders(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Run.Ticks, want.Run.Ticks) {
			t.Errorf("%s: tick records differ from the oracle's", tc.name)
		}
		if !reflect.DeepEqual(got.Run.Sends, want.Run.Sends) {
			t.Errorf("%s: sends differ from the oracle's", tc.name)
		}
		if !reflect.DeepEqual(got.Violations, want.Violations) || !reflect.DeepEqual(got.Logical, want.Logical) {
			t.Errorf("%s: violations or logical clocks differ from the oracle's", tc.name)
		}
	}
}
