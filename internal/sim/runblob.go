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
// The encoding is canonical: node order is graph index order, edge order
// is graph.DirectedEdges order (lexicographic), every string is
// uvarint-length-delimited. Two encodes of the same Run are
// byte-identical, and no map is ever iterated in map order — the
// package's determinism contract extends to the bytes it persists.
//
// Decoding is defensive: any structural violation (bad magic, counts out
// of range, truncated fields) returns an error, which the cache layer
// treats exactly like a corrupt blob — delete and recompute. A decoded
// blob can therefore never poison an execution; the worst case of a
// damaged cache directory is a cache miss.

// runBlobMagic versions the Run frame; bump on any shape change so stale
// blobs from older binaries read as corrupt instead of misdecoding.
const runBlobMagic = "sim.runblob/v1"

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

	b := make([]byte, 0, runBlobSize(r))
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
	if r.Snapshots != nil {
		for u := 0; u < n; u++ {
			b = binary.AppendUvarint(b, uint64(len(r.Snapshots[u])))
			for _, s := range r.Snapshots[u] {
				b = appendBlobStr(b, s)
			}
		}
	}
	if r.Edges != nil {
		for _, e := range g.DirectedEdges() {
			seq := r.Edges[e]
			b = binary.AppendUvarint(b, uint64(len(seq)))
			for _, p := range seq {
				b = appendBlobStr(b, string(p))
			}
		}
	}
	return b, true
}

// Decode reconstructs a Run from its blob. Snapshot strings and
// payloads are interned per decode, mirroring executeCore's interning,
// so a decoded full recording retains one canonical copy of each
// distinct state/payload.
func (RunCodec) Decode(data []byte) (any, error) {
	d := blobReader{data: data}
	if magic := d.str(); magic != runBlobMagic {
		return nil, fmt.Errorf("sim: run blob magic %q", magic)
	}
	n := d.count(maxBlobNodes)
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
		intern := make(map[string]string, 2*n)
		r.Snapshots = make([][]string, n)
		for u := 0; u < n && d.err == nil; u++ {
			rounds := d.count(1 << 30)
			r.Snapshots[u] = make([]string, rounds)
			for i := range r.Snapshots[u] {
				s := d.str()
				if c, ok := intern[s]; ok {
					s = c
				} else {
					intern[s] = s
				}
				r.Snapshots[u][i] = s
			}
		}
	}
	if flags&2 != 0 {
		intern := make(map[Payload]Payload, 4*n)
		r.Edges = make(map[graph.Edge][]Payload, 2*g.NumEdges())
		for _, e := range g.DirectedEdges() {
			if d.err != nil {
				break
			}
			rounds := d.count(1 << 30)
			seq := make([]Payload, rounds)
			for i := range seq {
				p := Payload(d.str())
				if c, ok := intern[p]; ok {
					p = c
				} else {
					intern[p] = p
				}
				seq[i] = p
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

// runBlobSize pre-sizes the encode buffer; an estimate, not a contract.
func runBlobSize(r *Run) int {
	return 64 + int(runCost(r))
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

// count reads a non-negative count and bounds it, guarding allocations
// against damaged blobs.
func (d *blobReader) count(max int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.err = fmt.Errorf("sim: run blob count %d out of range", v)
		return 0
	}
	return int(v)
}

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
