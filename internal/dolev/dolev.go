// Package dolev implements reliable point-to-point communication over
// incomplete graphs in the presence of Byzantine nodes, following Dolev's
// "The Byzantine Generals Strike Again": a message from u to v is sent
// along 2f+1 vertex-disjoint paths, so at most f copies pass through
// faulty relays and the majority of path copies is authentic. An overlay
// adapter runs any complete-graph agreement device (EIG, phase king, ...)
// on top, which is how the 2f+1 connectivity bound of FLM85 is matched
// from above.
package dolev

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"flm/internal/graph"
	"flm/internal/sim"
)

// Router holds the vertex-disjoint path tables for a graph and fault
// bound. It is immutable after construction and shared by all overlay
// devices.
type Router struct {
	g       *graph.Graph
	n, f    int
	paths   [][]int // (origin*n+dest)*(2f+1)+idx -> path; nil when origin == dest
	maxHops int
}

// NewRouter computes 2f+1 vertex-disjoint paths for every ordered pair of
// nodes. It fails if the graph's connectivity is below 2f+1 (Dolev's
// requirement, and FLM85's lower bound).
func NewRouter(g *graph.Graph, f int) (*Router, error) {
	need := 2*f + 1
	if conn := g.VertexConnectivity(); conn < need {
		return nil, fmt.Errorf("dolev: connectivity %d < 2f+1 = %d", conn, need)
	}
	n := g.N()
	r := &Router{g: g, n: n, f: f, paths: make([][]int, n*n*need)}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			paths, err := g.VertexDisjointPaths(u, v, need)
			if err != nil {
				return nil, err
			}
			if len(paths) < need {
				return nil, fmt.Errorf("dolev: only %d disjoint paths between %s and %s",
					len(paths), g.Name(u), g.Name(v))
			}
			for i, p := range paths[:need] {
				rp := make([]int, len(p))
				for j, x := range p {
					rp[len(p)-1-j] = x
				}
				r.paths[(u*n+v)*need+i] = p
				r.paths[(v*n+u)*need+i] = rp
				r.maxHops = max(r.maxHops, len(p)-1)
			}
		}
	}
	return r, nil
}

// StretchFactor returns P, the number of simulator rounds one overlay
// round occupies (the longest routing path in hops).
func (r *Router) StretchFactor() int { return r.maxHops }

// Path returns the idx-th disjoint path from origin to dest (as node
// indices), or nil if out of range.
func (r *Router) Path(origin, dest, idx int) []int {
	if origin < 0 || origin >= r.n || dest < 0 || dest >= r.n || idx < 0 || idx >= r.NumPaths() {
		return nil
	}
	return r.paths[(origin*r.n+dest)*r.NumPaths()+idx]
}

// NumPaths returns the number of disjoint paths used per pair (2f+1).
func (r *Router) NumPaths() int { return 2*r.f + 1 }

// piece is one routed fragment: a copy of an overlay message traveling
// along one path.
type piece struct {
	origin, dest int
	pathIdx      int
	hop          int // position of the current holder on the path
	innerRound   int
	payload      string // the inner payload, raw
}

// encode returns the wire form of p. Pieces carry router node indices,
// so the router is not consulted.
func (p piece) encode(*Router) string {
	return string(p.appendEncode(nil))
}

// appendEncode appends the wire form of p to b:
// "origin,dest,pathIdx,hop,innerRound,len:payload", the fields in
// canonical decimal and len the byte length of the raw payload. Pieces
// are concatenated with no separator, so the header, which is always
// printable, is what frames them.
func (p piece) appendEncode(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.origin), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.dest), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.pathIdx), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.hop), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.innerRound), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(len(p.payload)), 10)
	b = append(b, ':')
	return append(b, p.payload...)
}

// decodePiece decodes s when it is exactly one well-formed piece.
func decodePiece(r *Router, s string) (piece, bool) {
	p, rest, ok := r.nextPiece(s)
	return p, ok && rest == ""
}

// nextPiece decodes the piece at the front of s in one bounded pass and
// returns it with the bytes that follow. It rejects an origin or
// destination of n or more, a path index of 2f+1 or more, a hop of 0 or
// past the longest path, a field with a sign or a leading zero or past
// the int range, and a payload length past the end of s. After a
// rejected piece the framing is lost, so the caller stops there.
func (r *Router) nextPiece(s string) (p piece, rest string, ok bool) {
	var field [6]int
	i := 0
	for k := range field {
		sep := byte(',')
		if k == len(field)-1 {
			sep = ':'
		}
		start, x := i, 0
		for ; i < len(s) && s[i] != sep; i++ {
			c := int(s[i]) - '0'
			if c < 0 || c > 9 || x > (math.MaxInt-c)/10 {
				return p, "", false
			}
			x = x*10 + c
		}
		if i == start || i == len(s) || s[start] == '0' && i-start > 1 {
			return p, "", false
		}
		field[k] = x
		i++ // the separator
	}
	p = piece{origin: field[0], dest: field[1], pathIdx: field[2], hop: field[3], innerRound: field[4]}
	if p.origin >= r.n || p.dest >= r.n || p.pathIdx >= r.NumPaths() ||
		p.hop == 0 || p.hop > r.maxHops || field[5] > len(s)-i {
		return piece{}, "", false
	}
	p.payload = s[i : i+field[5]]
	return p, s[i+field[5]:], true
}

// overlayDevice runs an inner complete-graph device over Dolev routing.
type overlayDevice struct {
	router    *Router
	inner     sim.Device
	self      int
	peerNodes []int                 // inner port -> node: every other node, in name order
	portNode  []int                 // port -> node; -1 for a neighbor outside the router's graph
	nodePort  []int                 // node -> port; -1 for non-neighbors
	outbox    []piece               // pieces to transmit next round
	arrived   map[arrivalKey]string // (origin, innerRound, pathIdx) -> raw payload (first copy wins)

	// Reusable per-step scratch. The overlay steps every simulator round
	// for every node, so transient maps and slices here would otherwise
	// dominate the sweep allocator profile.
	innerInbox sim.Inbox    // majority inbox, by inner port (stepInner)
	tallyVals  []string     // distinct copies seen on the paths (stepInner)
	tallyCnts  []int        // matching counts (stepInner)
	wire       [][]byte     // outgoing pieces, framed, by port (flush)
	out        sim.Outbox   // (flush)
	snapKeys   []arrivalKey // (Snapshot)
	snapBuf    []byte       // (Snapshot)
}

type arrivalKey struct {
	origin, innerRound, pathIdx int
}

func compareArrivals(a, b arrivalKey) int {
	if c := cmp.Compare(a.origin, b.origin); c != 0 {
		return c
	}
	if c := cmp.Compare(a.innerRound, b.innerRound); c != 0 {
		return c
	}
	return cmp.Compare(a.pathIdx, b.pathIdx)
}

var _ sim.Device = (*overlayDevice)(nil)

// Overlay wraps an inner builder so the resulting devices run on the
// router's (possibly sparse) graph. The inner device is built believing
// it sits on the complete graph over all node names; each of its rounds
// occupies StretchFactor() simulator rounds.
func Overlay(router *Router, inner sim.Builder) sim.Builder {
	g := router.g
	byName := make([]int, g.N())
	for v := range byName {
		byName[v] = v
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(g.Name(a), g.Name(b)) })
	// Per inner round a node receives one copy per path from every other
	// node and launches as many. A relay's queue grows past that once and
	// keeps its capacity.
	copies := (g.N() - 1) * router.NumPaths()
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		u := g.MustIndex(self)
		peerNodes := make([]int, 0, g.N()-1)
		peers := make([]string, 0, g.N()-1)
		for _, v := range byName {
			if v != u {
				peerNodes = append(peerNodes, v)
				peers = append(peers, g.Name(v))
			}
		}
		nbs := append([]string(nil), neighbors...)
		slices.Sort(nbs)
		d := &overlayDevice{
			router:    router,
			inner:     inner(self, peers, input),
			self:      u,
			peerNodes: peerNodes,
			portNode:  make([]int, len(nbs)),
			nodePort:  make([]int, g.N()),
			outbox:    make([]piece, 0, copies),
			arrived:   make(map[arrivalKey]string, copies),
			wire:      make([][]byte, len(nbs)),
		}
		for v := range d.nodePort {
			d.nodePort[v] = -1
		}
		for i, nb := range nbs {
			v, ok := g.Index(nb)
			if !ok {
				v = -1
			} else {
				d.nodePort[v] = i
			}
			d.portNode[i] = v
		}
		return d
	}
}

func (d *overlayDevice) Init(self string, neighbors []string, input sim.Input) {
	// The inner device was built with its complete-graph view.
}

func (d *overlayDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	d.ingest(inbox)
	p := d.router.StretchFactor()
	if round%p == 0 {
		innerRound := round / p
		d.stepInner(innerRound)
	}
	return d.flush()
}

// ingest validates and routes incoming pieces: recording copies addressed
// to us, forwarding the rest one hop. A malformed piece ends its payload:
// the framing is lost after it, and only a faulty sender writes one, so
// dropping the rest is an omission.
func (d *overlayDevice) ingest(inbox sim.Inbox) {
	for port, payload := range inbox {
		fromIdx := d.portNode[port]
		if fromIdx < 0 {
			continue
		}
		for rest := string(payload); rest != ""; {
			pc, next, ok := d.router.nextPiece(rest)
			if !ok {
				break
			}
			rest = next
			path := d.router.Path(pc.origin, pc.dest, pc.pathIdx)
			if pc.hop >= len(path) {
				continue
			}
			// We must be the node at position hop, fed by position hop-1.
			if path[pc.hop] != d.self || path[pc.hop-1] != fromIdx {
				continue
			}
			if pc.hop == len(path)-1 {
				// We are the destination: record the first copy per path.
				key := arrivalKey{origin: pc.origin, innerRound: pc.innerRound, pathIdx: pc.pathIdx}
				if _, dup := d.arrived[key]; !dup {
					d.arrived[key] = pc.payload
				}
				continue
			}
			pc.hop++
			d.outbox = append(d.outbox, pc)
		}
	}
}

// stepInner hands the inner device the majority inbox for the inner
// round and launches its new messages along all disjoint paths.
func (d *overlayDevice) stepInner(innerRound int) {
	if d.innerInbox == nil {
		d.innerInbox = make(sim.Inbox, len(d.peerNodes))
	}
	clear(d.innerInbox)
	if innerRound > 0 {
		for port, origin := range d.peerNodes {
			// Tally the ≤ 2f+1 path copies in small parallel slices; a map
			// plus a sorted key slice per origin per round is allocator
			// noise for a population this size. Ties break toward the
			// lexicographically smallest copy.
			vals, cnts := d.tallyVals[:0], d.tallyCnts[:0]
			for idx := 0; idx < d.router.NumPaths(); idx++ {
				key := arrivalKey{origin: origin, innerRound: innerRound - 1, pathIdx: idx}
				if copyVal, ok := d.arrived[key]; ok {
					seen := false
					for i, v := range vals {
						if v == copyVal {
							cnts[i]++
							seen = true
							break
						}
					}
					if !seen {
						vals = append(vals, copyVal)
						cnts = append(cnts, 1)
					}
				}
				delete(d.arrived, key)
			}
			d.tallyVals, d.tallyCnts = vals, cnts
			best, bestN := "", 0
			for i, v := range vals {
				if cnts[i] > bestN || (cnts[i] == bestN && v < best) {
					best, bestN = v, cnts[i]
				}
			}
			// Authentic iff a majority of the 2f+1 paths agree.
			if bestN >= d.router.f+1 {
				d.innerInbox[port] = sim.Payload(best)
			}
		}
	}
	out := d.inner.Step(innerRound, d.innerInbox)
	for port, payload := range out {
		if payload == sim.None {
			continue
		}
		for idx := 0; idx < d.router.NumPaths(); idx++ {
			d.outbox = append(d.outbox, piece{
				origin: d.self, dest: d.peerNodes[port], pathIdx: idx, hop: 1,
				innerRound: innerRound, payload: string(payload),
			})
		}
	}
}

// flush frames the queued pieces into one payload per next-hop port.
// The queue order is deterministic (ingest walks ports in order, then
// stepInner walks peers in order), so it fixes the payload bytes.
func (d *overlayDevice) flush() sim.Outbox {
	if len(d.outbox) == 0 {
		return nil
	}
	for _, pc := range d.outbox {
		path := d.router.Path(pc.origin, pc.dest, pc.pathIdx)
		port := d.nodePort[path[pc.hop]]
		if port < 0 {
			continue // cannot happen with consistent tables
		}
		d.wire[port] = pc.appendEncode(d.wire[port])
	}
	d.outbox = d.outbox[:0]
	if d.out == nil {
		d.out = make(sim.Outbox, len(d.wire))
	}
	for port, b := range d.wire {
		d.out[port] = sim.Payload(b) // None when nothing goes there
		d.wire[port] = b[:0]
	}
	return d.out
}

const hexDigits = "0123456789abcdef"

// Snapshot is "dolev|<inner>" followed by "|o.r.p=<hex>" for each
// stored copy, in (origin, innerRound, pathIdx) order. Copies are held
// raw and hex-encoded only here.
func (d *overlayDevice) Snapshot() string {
	keys := d.snapKeys[:0]
	for k := range d.arrived {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareArrivals)
	b := append(d.snapBuf[:0], "dolev|"...)
	b = append(b, d.inner.Snapshot()...)
	for _, k := range keys {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(k.origin), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(k.innerRound), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(k.pathIdx), 10)
		b = append(b, '=')
		v := d.arrived[k]
		for i := 0; i < len(v); i++ {
			b = append(b, hexDigits[v[i]>>4], hexDigits[v[i]&0x0f])
		}
	}
	d.snapKeys, d.snapBuf = keys, b
	return string(b)
}

func (d *overlayDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// Rounds converts inner-device rounds to overlay simulator rounds.
func (r *Router) Rounds(innerRounds int) int {
	return innerRounds*r.StretchFactor() + 1
}
