package dolev

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

func wheelRouter(t testing.TB) *Router {
	t.Helper()
	r, err := NewRouter(graph.Wheel(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPieceDecoderBounds: a piece truncated anywhere, or with one field
// out of range or not in canonical decimal, is rejected; pieces at the
// edge of each range are read.
func TestPieceDecoderBounds(t *testing.T) {
	r := wheelRouter(t) // n = 7, 3 paths
	maxHops := r.StretchFactor()
	good := piece{origin: 1, dest: 4, pathIdx: 2, hop: 1, innerRound: 3, payload: "a,b:c"}
	enc := good.encode(r)
	if enc != "1,4,2,1,3,5:a,b:c" {
		t.Fatalf("encode = %q", enc)
	}
	if p, ok := decodePiece(r, enc); !ok || p != good {
		t.Fatalf("decodePiece(%q) = %+v, %v", enc, p, ok)
	}
	for k := 0; k < len(enc); k++ {
		if p, ok := decodePiece(r, enc[:k]); ok {
			t.Errorf("truncated piece %q decoded to %+v", enc[:k], p)
		}
		if p, _, ok := r.nextPiece(enc[:k]); ok {
			t.Errorf("truncated piece %q read as a prefix %+v", enc[:k], p)
		}
	}
	accept := []string{
		"6,0,2,1,0,0:",
		fmt.Sprintf("0,6,0,%d,0,1:x", maxHops),
		fmt.Sprintf("0,1,0,1,%d,1:x", math.MaxInt),
	}
	for _, s := range accept {
		if _, ok := decodePiece(r, s); !ok {
			t.Errorf("valid piece %q rejected", s)
		}
	}
	reject := []string{
		"7,0,2,1,0,0:",                          // origin = n
		"0,7,2,1,0,0:",                          // destination = n
		"0,1,3,1,0,0:",                          // path index = 2f+1
		"0,1,0,0,0,0:",                          // hop 0
		fmt.Sprintf("0,1,0,%d,0,0:", maxHops+1), // hop past the longest path
		"0,1,0,1,0,2:x",                         // length past the end
		"0,1,0,1,0,9223372036854775807:x",
		"00,1,0,1,0,1:x", // leading zeros
		"0,01,0,1,0,1:x",
		"0,1,0,1,0,01:x",
		"+0,1,0,1,0,1:x", // signs
		"0,1,0,1,-1,1:x",
		"0,1,0,1,9223372036854775808,1:x", // past the int range
		"0,1,0,1,99999999999999999999999,1:x",
		"0,1,0,1,0,1", // missing fields
		"0,1,0,1,0:x",
		",1,0,1,0,1:x",
		"0,1,0,1,0,1;x", // wrong separators
		" 0,1,0,1,0,1:x",
	}
	for _, s := range reject {
		if p, ok := decodePiece(r, s); ok {
			t.Errorf("piece %q decoded to %+v", s, p)
		}
	}
}

// TestMalformedPieceEndsPayload: the pieces before a malformed one are
// kept, and nothing after it is, since the framing is lost there.
func TestMalformedPieceEndsPayload(t *testing.T) {
	g := graph.Complete(4)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := Overlay(r, byzantine.NewEIG(1, g.Names()))("p2", []string{"p0", "p1", "p3"}, "1").(*overlayDevice)
	copyAt := func(round int) string {
		return piece{origin: 0, dest: 2, pathIdx: 0, hop: 1, innerRound: round, payload: "ab"}.encode(r)
	}
	payload := copyAt(0) + copyAt(1) + "0,2,0,1,x" + copyAt(3)
	if p, rest, ok := r.nextPiece(payload); !ok || p.innerRound != 0 || !strings.HasPrefix(rest, copyAt(1)) {
		t.Fatalf("nextPiece(%q) = %+v, %q, %v", payload, p, rest, ok)
	}
	d.ingest(sim.Inbox{sim.Payload(payload), sim.None, sim.None})
	var rounds []int
	for k := range d.arrived {
		rounds = append(rounds, k.innerRound)
	}
	slices.Sort(rounds)
	if !slices.Equal(rounds, []int{0, 1}) {
		t.Errorf("stored copies of inner rounds %v, want [0 1]", rounds)
	}
}

// wheelPayloads returns the distinct non-empty payloads a full-recording
// EIG run over the router on Wheel(7) puts on the wire, with an
// equivocating hub so that copies disagree.
func wheelPayloads(t testing.TB, r *Router) []string {
	t.Helper()
	g := r.g
	honest := Overlay(r, byzantine.NewEIG(1, g.Names()))
	inputs := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		inputs[name] = sim.BoolInput(i%2 == 0)
	}
	trial := byzantine.Trial{
		G: g, Inputs: inputs, Honest: honest,
		Faulty: map[string]sim.Builder{"w0": adversary.Equivocate(honest, sim.BoolInput(false), sim.BoolInput(true),
			func(nb string) bool { return nb < "w3" })},
		Rounds: r.Rounds(byzantine.EIGRounds(1)),
	}
	run, _, _, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range g.DirectedEdges() {
		for _, p := range run.Edges[e] {
			if p != sim.None && !seen[string(p)] {
				seen[string(p)] = true
				out = append(out, string(p))
			}
		}
	}
	return out
}

// FuzzDecodePiece feeds the decoder arbitrary bytes. It must never
// panic; a piece it reads re-encodes to exactly the bytes it was read
// from; and the in-range piece the input spells out field by field
// survives an encode–decode round trip. The seeds, real payloads of a
// Wheel(7) run and the cases of the tests above, run in plain go test.
func FuzzDecodePiece(f *testing.F) {
	r := wheelRouter(f)
	payloads := wheelPayloads(f, r)
	if len(payloads) == 0 {
		f.Fatal("the seed run put nothing on the wire")
	}
	for i, p := range payloads {
		if i%7 == 0 {
			f.Add([]byte(p))
			f.Add([]byte(p[:len(p)/2]))
		}
	}
	for _, s := range []string{
		"", "nonsense", "p0>p1>0,1,0,ab", "7,0,2,1,0,0:", "0,1,3,1,0,0:", "0,1,0,0,0,0:",
		"0,1,0,1,0,2:x", "00,1,0,1,0,1:x", "+0,1,0,1,0,1:x", "0,1,0,1,9223372036854775808,1:x",
		"0,1,0,1,0,1:x0,2,0,1,1,1:yjunk0,3,0,1,2,1:z",
	} {
		f.Add([]byte(s))
	}
	need, hops := uint64(r.NumPaths()), uint64(r.StretchFactor())
	f.Fuzz(func(t *testing.T, data []byte) {
		s := string(data)
		if p, ok := decodePiece(r, s); ok && p.encode(r) != s {
			t.Fatalf("decodePiece(%q) = %+v, which encodes to %q", s, p, p.encode(r))
		}
		for rest := s; rest != ""; {
			p, next, ok := r.nextPiece(rest)
			if !ok {
				break
			}
			if read := rest[:len(rest)-len(next)]; !strings.HasSuffix(rest, next) || p.encode(r) != read {
				t.Fatalf("nextPiece(%q) = %+v, %q: not the bytes it read", rest, p, next)
			}
			rest = next
		}
		if len(data) < 12 {
			return
		}
		p := piece{
			origin:     int(data[0]) % r.n,
			dest:       int(data[1]) % r.n,
			pathIdx:    int(uint64(data[2]) % need),
			hop:        1 + int(uint64(data[3])%hops),
			innerRound: int(binary.LittleEndian.Uint64(data[4:12]) & math.MaxInt),
			payload:    string(data[12:]),
		}
		if back, ok := decodePiece(r, p.encode(r)); !ok || back != p {
			t.Fatalf("decodePiece(encode(%+v)) = %+v, %v", p, back, ok)
		}
	})
}
