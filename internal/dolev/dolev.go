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
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
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
	f       int
	paths   map[[2]int][][]int
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
	r := &Router{g: g, f: f, paths: make(map[[2]int][][]int)}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			paths, err := g.VertexDisjointPaths(u, v, need)
			if err != nil {
				return nil, err
			}
			if len(paths) < need {
				return nil, fmt.Errorf("dolev: only %d disjoint paths between %s and %s",
					len(paths), g.Name(u), g.Name(v))
			}
			paths = paths[:need]
			r.paths[[2]int{u, v}] = paths
			reversed := make([][]int, len(paths))
			for i, p := range paths {
				rp := make([]int, len(p))
				for j, x := range p {
					rp[len(p)-1-j] = x
				}
				reversed[i] = rp
			}
			r.paths[[2]int{v, u}] = reversed
			for _, p := range paths {
				if len(p)-1 > r.maxHops {
					r.maxHops = len(p) - 1
				}
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
	paths := r.paths[[2]int{origin, dest}]
	if idx < 0 || idx >= len(paths) {
		return nil
	}
	return paths[idx]
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
	payload      string // hex-encoded inner payload
}

func (p piece) encode(r *Router) string {
	return string(p.appendEncode(nil, r))
}

// appendEncode is the allocation-free form of encode: it appends the wire
// representation ("origin>dest>pathIdx,hop,innerRound,payload") to b. The
// overlay encodes every piece every hop, so this path must not go through
// fmt.
func (p piece) appendEncode(b []byte, r *Router) []byte {
	b = append(b, r.g.Name(p.origin)...)
	b = append(b, '>')
	b = append(b, r.g.Name(p.dest)...)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(p.pathIdx), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.hop), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.innerRound), 10)
	b = append(b, ',')
	b = append(b, p.payload...)
	return b
}

// isHex reports whether s is a valid hex string by hex.DecodeString's
// rules, without allocating the decoded bytes just to throw them away.
func isHex(s string) bool {
	if len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

func decodePiece(r *Router, s string) (piece, bool) {
	var p piece
	// Wire layout: origin>dest>pathIdx,hop,innerRound,payload. Cut walks
	// the fields without allocating the intermediate slices that
	// strings.Split would.
	head, rest, ok := strings.Cut(s, ",")
	if !ok {
		return p, false
	}
	originName, route, ok := strings.Cut(head, ">")
	if !ok {
		return p, false
	}
	destName, pathIdxS, ok := strings.Cut(route, ">")
	if !ok || strings.IndexByte(pathIdxS, '>') >= 0 {
		return p, false
	}
	hopS, rest2, ok := strings.Cut(rest, ",")
	if !ok {
		return p, false
	}
	innerRoundS, payload, ok := strings.Cut(rest2, ",")
	if !ok {
		return p, false
	}
	origin, ok1 := r.g.Index(originName)
	dest, ok2 := r.g.Index(destName)
	if !ok1 || !ok2 {
		return p, false
	}
	pathIdx, err1 := sim.DecodeInt(pathIdxS)
	hop, err2 := sim.DecodeInt(hopS)
	innerRound, err3 := sim.DecodeInt(innerRoundS)
	if err1 != nil || err2 != nil || err3 != nil {
		return p, false
	}
	if !isHex(payload) {
		return p, false
	}
	p = piece{origin: origin, dest: dest, pathIdx: pathIdx, hop: hop, innerRound: innerRound, payload: payload}
	return p, true
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
	arrived   map[arrivalKey]string // (origin, innerRound, pathIdx) -> payload (first copy wins)

	// Reusable per-step scratch. The overlay steps every simulator round
	// for every node, so transient maps and slices here would otherwise
	// dominate the sweep allocator profile.
	innerInbox sim.Inbox  // decoded majority inbox, by inner port (stepInner)
	tallyVals  []string   // distinct copies seen on the paths (stepInner)
	tallyCnts  []int      // matching counts (stepInner)
	frags      [][]string // encoded fragments per port (flush)
	encBuf     []byte     // piece wire-encoding buffer (flush)
	out        sim.Outbox // (flush)
}

type arrivalKey struct {
	origin, innerRound, pathIdx int
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
			arrived:   make(map[arrivalKey]string),
			frags:     make([][]string, len(nbs)),
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
// to us, forwarding the rest one hop.
func (d *overlayDevice) ingest(inbox sim.Inbox) {
	for port, payload := range inbox {
		fromIdx := d.portNode[port]
		if fromIdx < 0 || payload == sim.None {
			continue
		}
		rest := string(payload)
		for more := true; more; {
			var frag string
			frag, rest, more = strings.Cut(rest, "&")
			pc, ok := decodePiece(d.router, frag)
			if !ok {
				continue
			}
			path := d.router.Path(pc.origin, pc.dest, pc.pathIdx)
			if path == nil || pc.hop <= 0 || pc.hop >= len(path) {
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
			next := pc
			next.hop++
			d.outbox = append(d.outbox, next)
		}
	}
}

// stepInner decodes the majority inbox for the inner round and launches
// the inner device's new messages along all disjoint paths.
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
			// lexicographically smallest copy, as the sorted-keys scan did.
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
				decoded, err := hex.DecodeString(best)
				if err == nil && len(decoded) > 0 {
					d.innerInbox[port] = sim.Payload(decoded)
				}
			}
		}
	}
	out := d.inner.Step(innerRound, d.innerInbox)
	for port, payload := range out {
		if payload == sim.None {
			continue
		}
		encoded := hex.EncodeToString([]byte(payload))
		for idx := 0; idx < d.router.NumPaths(); idx++ {
			d.outbox = append(d.outbox, piece{
				origin: d.self, dest: d.peerNodes[port], pathIdx: idx, hop: 1,
				innerRound: innerRound, payload: encoded,
			})
		}
	}
}

// flush groups queued pieces by next-hop port into one payload each.
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
		d.encBuf = pc.appendEncode(d.encBuf[:0], d.router)
		d.frags[port] = append(d.frags[port], string(d.encBuf))
	}
	d.outbox = d.outbox[:0]
	if d.out == nil {
		d.out = make(sim.Outbox, len(d.frags))
	}
	for port, frags := range d.frags {
		d.out[port] = sim.None
		if len(frags) == 0 {
			continue
		}
		// Pieces queue in arrival order; sorting fixes the payload bytes.
		sort.Strings(frags)
		d.out[port] = sim.Payload(strings.Join(frags, "&"))
		d.frags[port] = frags[:0]
	}
	return d.out
}

func (d *overlayDevice) Snapshot() string {
	keys := make([]arrivalKey, 0, len(d.arrived))
	for k := range d.arrived {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.origin != b.origin {
			return a.origin < b.origin
		}
		if a.innerRound != b.innerRound {
			return a.innerRound < b.innerRound
		}
		return a.pathIdx < b.pathIdx
	})
	var b strings.Builder
	b.WriteString("dolev|")
	b.WriteString(d.inner.Snapshot())
	for _, k := range keys {
		fmt.Fprintf(&b, "|%d.%d.%d=%s", k.origin, k.innerRound, k.pathIdx, d.arrived[k])
	}
	return b.String()
}

func (d *overlayDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// Rounds converts inner-device rounds to overlay simulator rounds.
func (r *Router) Rounds(innerRounds int) int {
	return innerRounds*r.StretchFactor() + 1
}
