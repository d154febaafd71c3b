package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flm/internal/graph"
)

// TestReplayScriptsNotAliased pins the sharing contract introduced when
// NewReplayDevice stopped deep-copying scripts: the device shares the
// caller's backing slices, so it must never write to them — running a
// full system of replay devices leaves every source sequence
// byte-identical — while map-level mutation (Init's pruning of
// non-neighbor scripts) must stay confined to the device's own map.
func TestReplayScriptsNotAliased(t *testing.T) {
	g := graph.MustNew("a", "b", "c")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	scripts := map[string][]Payload{
		"a":   {"x", None, "y"},
		"b":   {"m", "n", None},
		"c":   {None, "p", "q"},
		"far": {"dropped"}, // not a neighbor of anyone; Init must prune it
	}
	want := make(map[string][]Payload, len(scripts))
	for nb, seq := range scripts {
		want[nb] = append([]Payload(nil), seq...)
	}

	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = ReplayBuilder(scripts)
		p.Inputs[name] = Input("0")
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(sys, 3); err != nil {
		t.Fatal(err)
	}

	// The shared backing slices must be untouched...
	for nb, seq := range scripts {
		if !reflect.DeepEqual(seq, want[nb]) {
			t.Fatalf("script %q mutated through sharing: %v, want %v", nb, seq, want[nb])
		}
	}
	// ...including the caller's map itself: Init prunes the device's own
	// clone, never the source.
	if len(scripts) != len(want) {
		t.Fatalf("caller's script map shrank to %d entries, want %d", len(scripts), len(want))
	}

	// Two devices built from one script map share slices; both replaying
	// the full schedule proves reads are independent of the sharing.
	d1 := NewReplayDevice(scripts)
	d1.Init("a", []string{"b", "c"}, "0")
	d2 := NewReplayDevice(scripts)
	d2.Init("a", []string{"b", "c"}, "0")
	for r := 0; r < 3; r++ {
		o1 := d1.Step(r, nil)
		// The Outbox is a reused buffer (Device contract), so compare
		// before stepping the second device via a copy.
		got := append(Outbox(nil), o1...)
		o2 := d2.Step(r, nil)
		if !reflect.DeepEqual(got, o2) {
			t.Fatalf("round %d: sibling replay devices diverged: %v vs %v", r, got, o2)
		}
	}
}

// TestReplayFingerprintTracksScripts ensures the replay fingerprint is
// exactly the post-Init script content: equal scripts collide, different
// payloads or audiences do not.
func TestReplayFingerprintTracksScripts(t *testing.T) {
	build := func(scripts map[string][]Payload) *ReplayDevice {
		d := NewReplayDevice(scripts)
		d.Init("x", []string{"a", "b"}, "0")
		return d
	}
	base := map[string][]Payload{"a": {"1", "2"}, "b": {"3"}}
	same := map[string][]Payload{"a": {"1", "2"}, "b": {"3"}}
	if build(base).DeviceFingerprint() != build(same).DeviceFingerprint() {
		t.Fatal("identical scripts produced different fingerprints")
	}
	diff := map[string][]Payload{"a": {"1", "2"}, "b": {"4"}}
	if build(base).DeviceFingerprint() == build(diff).DeviceFingerprint() {
		t.Fatal("different payloads collided")
	}
	moved := map[string][]Payload{"a": {"1", "2", "3"}, "b": {}}
	if build(base).DeviceFingerprint() == build(moved).DeviceFingerprint() {
		t.Fatal("different audiences collided")
	}
}

// fmtReplayFingerprint is DeviceFingerprint's encoding as fmt writes it:
// the oracle the hand-rolled encoder must match byte for byte, so run
// keys of spliced systems stay what they were.
func fmtReplayFingerprint(scripts map[string][]Payload) string {
	nbs := make([]string, 0, len(scripts))
	for nb := range scripts {
		nbs = append(nbs, nb)
	}
	sort.Strings(nbs)
	var b strings.Builder
	b.WriteString("replay")
	for _, nb := range nbs {
		seq := scripts[nb]
		fmt.Fprintf(&b, "|%d:%s:%d", len(nb), nb, len(seq))
		for _, p := range seq {
			fmt.Fprintf(&b, ",%d:%s", len(p), p)
		}
	}
	return b.String()
}

// TestReplayFingerprintMatchesFmt compares DeviceFingerprint with the fmt
// oracle over random scripts: no scripts at all, empty scripts and empty
// payloads, lengths of one to three digits, and names and payloads
// holding the encoding's own separators.
func TestReplayFingerprintMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const alphabet = "ab|:,;x0"
	word := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	lengths := []int{0, 1, 9, 10, 99, 100, 250}
	for trial := 0; trial < 300; trial++ {
		scripts := map[string][]Payload{}
		for k := rng.Intn(5); k > 0; k-- {
			seq := make([]Payload, lengths[rng.Intn(len(lengths))]/(1+rng.Intn(3)))
			for i := range seq {
				seq[i] = Payload(word(lengths[rng.Intn(len(lengths))]))
			}
			scripts[word(12)] = seq
		}
		if got, want := NewReplayDevice(scripts).DeviceFingerprint(), fmtReplayFingerprint(scripts); got != want {
			t.Fatalf("trial %d: fingerprint\n%q\nwant\n%q", trial, got, want)
		}
	}
}
