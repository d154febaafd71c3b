package sim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flm/internal/graph"
)

// Run serialization for the run cache's disk tier. A cached Run is fully
// determined by its content-addressed key, so the blob only has to carry
// the recorded behavior: the graph (names + undirected edges), inputs,
// decisions, and — for full recordings — the snapshot and edge-behavior
// sequences. Decision-only (fast mode) runs encode just the first part;
// the same frame handles both via a flags byte.
//
// Names, inputs and decisions are uvarint-length-delimited strings. The
// snapshot and edge sections share one string table instead: each
// recorded string is a uvarint tag, 0 for a new entry (its
// length-delimited bytes follow) and k > 0 for a reference to entry k,
// the k-th distinct string of those sections in blob order. A state a
// node keeps for several rounds, or a payload it broadcasts on every
// port, is written once and then costs a byte or two per occurrence.
//
// The encoding is canonical: node order is graph index order, edge order
// is graph.DirectedEdges order (lexicographic), and a string enters the
// table at its first occurrence in that order. Two encodes of the same
// Run are byte-identical, and no map is ever iterated in map order — the
// package's determinism contract extends to the bytes it persists.
//
// Decoding is defensive: any structural violation (bad magic, counts out
// of range, truncated fields, a reference past the table) returns an
// error, which the cache layer treats exactly like a corrupt blob —
// delete and recompute. A decoded blob can therefore never poison an
// execution; the worst case of a damaged cache directory is a cache
// miss.

// runBlobMagic versions the Run frame; bump on any shape change so stale
// blobs from older binaries read as corrupt instead of misdecoding. v2
// added the string table of the snapshot and edge sections.
const runBlobMagic = "sim.runblob/v2"

// maxBlobNodes bounds decoded allocations against nonsense counts in a
// damaged blob. Far above any graph this reproduction builds.
const maxBlobNodes = 1 << 16

var errBlobTruncated = errors.New("sim: run blob truncated")

// RunCodec is the runcache.Codec for *Run values. The zero value is
// ready to use.
type RunCodec struct{}

// Encode serializes a completed Run. Values that are not runs and
// partial runs (nil graph) report ok=false and stay out of the disk
// tier.
func (RunCodec) Encode(v any) ([]byte, bool) {
	r, ok := v.(*Run)
	if !ok || r == nil || r.G == nil {
		return nil, false
	}
	g := r.G
	n := g.N()

	b := make([]byte, 0, 256) // three in four blobs fit; append grows the rest
	b = appendBlobStr(b, runBlobMagic)
	b = binary.AppendUvarint(b, uint64(n))
	for u := 0; u < n; u++ {
		b = appendBlobStr(b, g.Name(u))
	}
	b = binary.AppendUvarint(b, uint64(g.NumEdges()))
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				b = binary.AppendUvarint(b, uint64(u))
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(r.Rounds))
	for u := 0; u < n; u++ {
		b = appendBlobStr(b, string(r.Inputs[u]))
	}
	for u := 0; u < n; u++ {
		b = appendBlobStr(b, r.Decisions[u].Value)
		b = binary.AppendUvarint(b, uint64(r.Decisions[u].Round))
	}

	var flags byte
	if r.Snapshots != nil {
		flags |= 1
	}
	if r.Edges != nil {
		flags |= 2
	}
	b = append(b, flags)
	tab := make(map[string]uint64)
	if r.Snapshots != nil {
		for u := 0; u < n; u++ {
			b = appendTabled(b, tab, r.Snapshots[u])
		}
	}
	if r.Edges != nil {
		for _, e := range g.DirectedEdges() {
			b = appendTabled(b, tab, r.Edges[e])
		}
	}
	return b, true
}

// appendTabled appends a counted sequence of table tags: a new entry for
// a string tab has not seen, a reference for one it has. A repeat of
// the previous string reuses its tag without a lookup; for the interned
// strings of a recorded run that comparison stops at the pointers.
func appendTabled[S ~string](b []byte, tab map[string]uint64, seq []S) []byte {
	b = binary.AppendUvarint(b, uint64(len(seq)))
	var ref uint64
	for i, s := range seq {
		if i == 0 || s != seq[i-1] {
			var seen bool
			if ref, seen = tab[string(s)]; !seen {
				ref = uint64(len(tab)) + 1
				tab[string(s)] = ref
				b = appendBlobStr(append(b, 0), string(s))
				continue
			}
		}
		b = binary.AppendUvarint(b, ref)
	}
	return b
}

// Decode reconstructs a Run from its blob. Each new entry of the string
// table is read into one string, and every reference to it resolves to
// that same string, so a decoded full recording retains one copy of
// each distinct state and payload, as executeCore's interning does for
// a cold run.
func (RunCodec) Decode(data []byte) (any, error) {
	d := blobReader{data: data}
	if magic := d.str(); magic != runBlobMagic {
		return nil, fmt.Errorf("sim: run blob magic %q", magic)
	}
	n := d.items(maxBlobNodes)
	names := make([]string, n)
	for u := range names {
		names[u] = d.str()
	}
	if d.err != nil {
		return nil, d.err
	}
	g, err := graph.New(names...)
	if err != nil {
		return nil, fmt.Errorf("sim: run blob graph: %w", err)
	}
	edges := d.count(maxBlobNodes * maxBlobNodes)
	for i := 0; i < edges && d.err == nil; i++ {
		u, v := d.count(n), d.count(n)
		if d.err == nil {
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("sim: run blob graph: %w", err)
			}
		}
	}
	r := &Run{
		G:         g,
		Rounds:    d.count(1 << 30),
		Inputs:    make([]Input, n),
		Decisions: make([]Decision, n),
	}
	for u := 0; u < n; u++ {
		r.Inputs[u] = Input(d.str())
	}
	for u := 0; u < n; u++ {
		r.Decisions[u].Value = d.str()
		r.Decisions[u].Round = d.count(1 << 30)
	}
	flags := d.byteVal()
	if flags&1 != 0 {
		r.Snapshots = make([][]string, n)
		for u := 0; u < n && d.err == nil; u++ {
			r.Snapshots[u] = make([]string, d.items(1<<30))
			for i := range r.Snapshots[u] {
				r.Snapshots[u][i] = d.tabled()
			}
		}
	}
	if flags&2 != 0 {
		r.Edges = make(map[graph.Edge][]Payload, 2*g.NumEdges())
		for _, e := range g.DirectedEdges() {
			if d.err != nil {
				break
			}
			seq := make([]Payload, d.items(1<<30))
			for i := range seq {
				seq[i] = Payload(d.tabled())
			}
			r.Edges[e] = seq
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, errors.New("sim: run blob has trailing bytes")
	}
	return r, nil
}

// runCost estimates the retained bytes of a cached *Run for the L1
// budget accounting. Interned strings are counted once per reference,
// deliberately overestimating shared state — the budget errs toward
// evicting early rather than blowing past its bound. Non-run values
// (none exist in this cache today) get the flat default.
func runCost(v any) int64 {
	r, ok := v.(*Run)
	if !ok || r == nil {
		return 512
	}
	cost := int64(256) // Run struct + graph headers
	if r.G != nil {
		for u := 0; u < r.G.N(); u++ {
			cost += int64(2*len(r.G.Name(u))) + 64 // name + index entry + adj
			cost += int64(8 * r.G.Degree(u))
		}
	}
	for _, in := range r.Inputs {
		cost += int64(len(in)) + 16
	}
	for _, dec := range r.Decisions {
		cost += int64(len(dec.Value)) + 24
	}
	for _, seq := range r.Snapshots {
		cost += 24
		for _, s := range seq {
			cost += int64(len(s)) + 16
		}
	}
	if r.Edges != nil && r.G != nil {
		for _, e := range r.G.DirectedEdges() {
			cost += int64(len(e.From)+len(e.To)) + 64
			for _, p := range r.Edges[e] {
				cost += int64(len(p)) + 16
			}
		}
	}
	return cost
}

func appendBlobStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// blobReader is a cursor over blob bytes with sticky error handling:
// after the first structural violation every subsequent read is a no-op
// returning zero values, and the error surfaces once at the end.
type blobReader struct {
	data []byte
	err  error
	tab  []string // the string table's entries, in blob order
}

func (d *blobReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.err = errBlobTruncated
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count reads a non-negative count and bounds it by max.
func (d *blobReader) count(max int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.err = fmt.Errorf("sim: run blob count %d out of range", v)
		return 0
	}
	return int(v)
}

// items reads the count of a sequence that is about to be allocated.
// Every element takes at least one byte, so the bytes left bound the
// count as well as max does: a crafted count cannot make Decode
// allocate more than its input justifies.
func (d *blobReader) items(max int) int { return d.count(min(max, len(d.data))) }

func (d *blobReader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.data)) < n {
		d.err = errBlobTruncated
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// tabled reads one table tag: a new entry joins the table, and a
// reference resolves to the entry's string itself, not a copy.
func (d *blobReader) tabled() string {
	k := d.uvarint()
	switch {
	case d.err != nil:
		return ""
	case k == 0:
		s := d.str()
		if d.err == nil {
			d.tab = append(d.tab, s)
		}
		return s
	case k > uint64(len(d.tab)):
		d.err = fmt.Errorf("sim: run blob reference %d past a table of %d", k, len(d.tab))
		return ""
	}
	return d.tab[k-1]
}

func (d *blobReader) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 1 {
		d.err = errBlobTruncated
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}
