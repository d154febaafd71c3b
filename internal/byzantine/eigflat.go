package byzantine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flm/internal/sim"
)

// maxEIGFlatSlots bounds the flat tree's slot space (sum of n^r over
// levels 1..f+1); peer sets past the bound fall back to the map device.
const maxEIGFlatSlots = 1 << 20

// eigShape is the per-(f, peers) geometry of the flat EIG tree, shared by
// every device a builder constructs (and interned across builders): level
// offsets into the slot space, the interned label string and membership
// bitmask of every valid slot, and the name→digit index. Level r
// (1 <= r <= f+1) occupies n^r slots; the label j1/j2/.../jr lives at
// slot offset[r] + ((j1·n + j2)·n + ...)·n + jr, so a child lookup is
// pure arithmetic and label strings are materialized exactly once, at
// shape construction, rather than per claim per device.
//
// Slots whose digit sequence repeats a peer can never hold a value
// (relay labels are distinct-name sequences); they keep a zero mask and
// an empty label and are skipped by enumeration.
type eigShape struct {
	f      int
	n      int
	peers  []string // sorted, distinct
	index  map[string]int
	offset []int // offset[r] = first slot of level r; offset[f+2] = total
	labels []string
	masks  []uint64
	fp     string

	sortOnce sync.Once
	sorted   []int32 // valid slots ordered by label string, for Snapshot
}

// eigShapes interns shapes by device fingerprint so concurrent sweep
// trials building the same protocol share one geometry.
var eigShapes sync.Map // fingerprint -> *eigShape

// eigShapeFor returns the interned shape for (f, sortedPeers), or nil if
// the flat representation cannot index this peer set: more than 64 peers
// (membership masks are one word), duplicate or empty names, names
// containing claim-codec delimiters, or a slot space past the cap.
func eigShapeFor(f int, sortedPeers []string, fp string) *eigShape {
	if v, ok := eigShapes.Load(fp); ok {
		return v.(*eigShape)
	}
	n := len(sortedPeers)
	if n == 0 || n > 64 || f < 0 {
		return nil
	}
	for i, p := range sortedPeers {
		if p == "" || strings.ContainsAny(p, ";=/") || (i > 0 && p == sortedPeers[i-1]) {
			return nil
		}
	}
	offset := make([]int, f+3)
	levelSize := 1
	total := 0
	for r := 1; r <= f+1; r++ {
		offset[r] = total
		if levelSize > maxEIGFlatSlots/n {
			return nil
		}
		levelSize *= n
		if total > maxEIGFlatSlots-levelSize {
			return nil
		}
		total += levelSize
	}
	offset[f+2] = total

	sh := &eigShape{
		f:      f,
		n:      n,
		peers:  sortedPeers,
		index:  make(map[string]int, n),
		offset: offset,
		labels: make([]string, total),
		masks:  make([]uint64, total),
		fp:     fp,
	}
	for j, p := range sortedPeers {
		sh.index[p] = j
		sh.labels[offset[1]+j] = p
		sh.masks[offset[1]+j] = uint64(1) << uint(j)
	}
	for r := 1; r <= f; r++ {
		lo, hi := offset[r], offset[r+1]
		for s := lo; s < hi; s++ {
			m := sh.masks[s]
			if m == 0 {
				continue
			}
			childBase := offset[r+1] + (s-lo)*n
			for j := 0; j < n; j++ {
				b := uint64(1) << uint(j)
				if m&b != 0 {
					continue
				}
				sh.labels[childBase+j] = sh.labels[s] + "/" + sortedPeers[j]
				sh.masks[childBase+j] = m | b
			}
		}
	}
	actual, _ := eigShapes.LoadOrStore(fp, sh)
	return actual.(*eigShape)
}

// sortedSlots returns the valid slots in lexicographic label order,
// computed once per shape (snapshots are emitted per round per device,
// so the sort must not be paid per call).
func (sh *eigShape) sortedSlots() []int32 {
	sh.sortOnce.Do(func() {
		out := make([]int32, 0, len(sh.masks))
		for s, m := range sh.masks {
			if m != 0 {
				out = append(out, int32(s))
			}
		}
		sort.Slice(out, func(i, j int) bool { return sh.labels[out[i]] < sh.labels[out[j]] })
		sh.sorted = out
	})
	return sh.sorted
}

// eigFlatDevice is the hot-path EIG implementation: the tree lives in a
// contiguous value slice indexed by the shared shape, claims are parsed
// without splitting, and resolution runs on (level, position) pairs with
// small-slice tallies instead of maps. It is observably identical to
// eigMapDevice (TestFlatEIGMatchesMapReference pins this).
//
// Claims relayed by senders outside the peer set — legal Byzantine noise
// the map device stores under labels the flat slot space cannot index —
// go to the extra map, which is nil on every honest execution.
type eigFlatDevice struct {
	shape     *eigShape
	fb        *eigMapDevice // fallback when self is outside the peer index
	self      string
	selfIdx   int
	neighbors []string
	portPeer  []int // port -> peer digit; -1 for a neighbor outside the peer set
	input     string
	vals      []string // slot -> value; "" = absent (stored values are never empty)
	extra     map[string]string
	claims    []string
	decided   bool
	decision  string
	out       sim.Outbox
	snap      string // last Snapshot; "" once Init or Step changes the tree or decision
}

var _ sim.Device = (*eigFlatDevice)(nil)
var _ sim.Fingerprinter = (*eigFlatDevice)(nil)

func (d *eigFlatDevice) DeviceFingerprint() string { return d.shape.fp }

func (d *eigFlatDevice) Init(self string, neighbors []string, input sim.Input) {
	d.init(self, sortedNames(neighbors), input)
}

// init takes ownership of the sorted neighbors slice.
func (d *eigFlatDevice) init(self string, neighbors []string, input sim.Input) {
	sh := d.shape
	idx, ok := sh.index[self]
	if !ok {
		// A device whose own node is not a peer stores labels ending in
		// its own name, which the slot space cannot index: delegate to
		// the reference implementation.
		d.fb = &eigMapDevice{f: sh.f, peers: sh.peers, fp: sh.fp}
		d.fb.init(self, neighbors, input)
		return
	}
	d.fb = nil
	d.self = self
	d.selfIdx = idx
	d.neighbors = neighbors
	d.portPeer = make([]int, len(neighbors))
	for i, nb := range neighbors {
		j, ok := sh.index[nb]
		if !ok {
			j = -1
		}
		d.portPeer[i] = j
	}
	d.input = sanitizeValue(string(input))
	if d.vals == nil {
		d.vals = make([]string, sh.offset[sh.f+2])
	} else {
		for i := range d.vals {
			d.vals[i] = ""
		}
	}
	d.extra = nil
	d.decided = false
	d.decision = ""
	d.snap = ""
}

func (d *eigFlatDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.fb != nil {
		return d.fb.Step(round, inbox)
	}
	sh := d.shape
	if round > sh.f+1 || d.decided {
		if round == sh.f+1 && !d.decided {
			d.finishAbsorb(round, inbox)
		}
		return nil
	}
	if round == 0 {
		// Self-delivery of the level-1 claim, then broadcast it.
		d.vals[sh.offset[1]+d.selfIdx] = d.input
		d.snap = ""
		return d.broadcast(sim.Payload("=" + d.input))
	}
	d.finishAbsorb(round, inbox)
	if round == sh.f+1 {
		return nil
	}
	claims := d.claimsAndSelfDeliver(round)
	if len(claims) == 0 {
		return d.broadcast(sim.Payload("-")) // keep traffic shape regular
	}
	return d.broadcast(sim.Payload(strings.Join(claims, ";")))
}

func (d *eigFlatDevice) finishAbsorb(round int, inbox sim.Inbox) {
	for i, p := range inbox {
		d.absorb(i, p, round)
	}
	if round == d.shape.f+1 {
		d.decision = d.resolveRoot()
		d.decided = true
		d.snap = ""
	}
}

// absorb records the claims of a round-(level) payload received on the
// given port, storing val(σ·sender) = v for each well-formed claim. The
// payload is walked in place (the claim codec is flat: claims split on
// ';', label from value at the first '='), matching eigMapDevice.absorb
// claim for claim.
func (d *eigFlatDevice) absorb(port int, payload sim.Payload, level int) {
	if payload == sim.None {
		return
	}
	sender, sIdx := d.neighbors[port], d.portPeer[port]
	sPeer := sIdx >= 0
	s := string(payload)
	for {
		claim := s
		next := strings.IndexByte(s, ';')
		if next >= 0 {
			claim, s = s[:next], s[next+1:]
		}
		d.absorbClaim(sender, sIdx, sPeer, claim, level)
		if next < 0 {
			return
		}
	}
}

func (d *eigFlatDevice) absorbClaim(sender string, sIdx int, sPeer bool, claim string, level int) {
	eq := strings.IndexByte(claim, '=')
	if eq < 0 {
		return
	}
	label, v := claim[:eq], sanitizeValue(claim[eq+1:])
	sh := d.shape
	// Parse the label into (position, membership, length); any component
	// that is empty, repeated, or not a peer makes the label invalid,
	// exactly as the reference's validLabel.
	pos, mask, ln := 0, uint64(0), 0
	if label != "" {
		rest := label
		for {
			part := rest
			next := strings.IndexByte(rest, '/')
			if next >= 0 {
				part, rest = rest[:next], rest[next+1:]
			}
			j, ok := sh.index[part]
			if !ok {
				return
			}
			b := uint64(1) << uint(j)
			if mask&b != 0 {
				return
			}
			mask |= b
			pos = pos*sh.n + j
			ln++
			if next < 0 {
				break
			}
		}
	}
	if ln != level-1 {
		return
	}
	if sPeer {
		if mask&(uint64(1)<<uint(sIdx)) != 0 {
			return // sender already appears in the label
		}
		slot := sh.offset[ln+1] + pos*sh.n + sIdx
		if d.vals[slot] == "" { // first claim wins; duplicates are Byzantine noise
			d.vals[slot] = v
			d.snap = ""
		}
		return
	}
	// Non-peer sender: the label σ·sender has no slot; keep the
	// reference semantics in the overflow map.
	full := extendLabel(label, sender)
	if _, dup := d.extra[full]; !dup {
		if d.extra == nil {
			d.extra = map[string]string{}
		}
		d.extra[full] = v
		d.snap = ""
	}
}

// claimsAndSelfDeliver collects the sorted level-r claims (labels not
// containing self) and performs self-delivery of each — storing
// val(σ·self) — structurally: the child of slot (r, pos) for self is
// slot (r+1, pos·n + selfIdx), so no claim string is re-parsed.
func (d *eigFlatDevice) claimsAndSelfDeliver(r int) []string {
	sh := d.shape
	claims := d.claims[:0]
	selfBit := uint64(1) << uint(d.selfIdx)
	lo, hi := sh.offset[r], sh.offset[r+1]
	for s := lo; s < hi; s++ {
		v := d.vals[s]
		if v == "" || sh.masks[s]&selfBit != 0 {
			continue
		}
		claims = append(claims, sh.labels[s]+"="+v)
		child := sh.offset[r+1] + (s-lo)*sh.n + d.selfIdx
		if d.vals[child] == "" {
			d.vals[child] = v
			d.snap = ""
		}
	}
	if len(d.extra) > 0 {
		start := len(claims)
		for label, v := range d.extra {
			if labelLen(label) != r || labelContains(label, d.self) {
				continue
			}
			claims = append(claims, label+"="+v)
		}
		for _, c := range claims[start:] {
			eq := strings.IndexByte(c, '=')
			full := extendLabel(c[:eq], d.self)
			if _, dup := d.extra[full]; !dup {
				d.extra[full] = c[eq+1:]
				d.snap = ""
			}
		}
	}
	sort.Strings(claims)
	d.claims = claims
	return claims
}

// resolveRoot computes the root decision value bottom-up: leaves resolve
// to their stored value, internal positions to the strict majority of
// their children, DefaultValue on ties or missing data. The per-level
// tallies run over small parallel slices; ties break to the smallest
// value exactly as the reference's sorted-key scan.
func (d *eigFlatDevice) resolveRoot() string {
	sh := d.shape
	vbuf := make([][]string, sh.f+1)
	cbuf := make([][]int, sh.f+1)
	var rec func(level, pos int, mask uint64) string
	rec = func(level, pos int, mask uint64) string {
		if level == sh.f+1 {
			if v := d.vals[sh.offset[level]+pos]; v != "" {
				return v
			}
			return DefaultValue
		}
		vs, cs := vbuf[level][:0], cbuf[level][:0]
		total := 0
		for j := 0; j < sh.n; j++ {
			b := uint64(1) << uint(j)
			if mask&b != 0 {
				continue
			}
			v := rec(level+1, pos*sh.n+j, mask|b)
			total++
			found := false
			for i := range vs {
				if vs[i] == v {
					cs[i]++
					found = true
					break
				}
			}
			if !found {
				vs, cs = append(vs, v), append(cs, 1)
			}
		}
		vbuf[level], cbuf[level] = vs, cs
		best, bestCount := DefaultValue, 0
		for i, v := range vs {
			if cs[i] > bestCount || (cs[i] == bestCount && v < best) {
				best, bestCount = v, cs[i]
			}
		}
		if 2*bestCount > total {
			return best
		}
		return DefaultValue
	}
	return rec(0, 0, 0)
}

func (d *eigFlatDevice) broadcast(p sim.Payload) sim.Outbox {
	d.out = sim.Broadcast(d.out, len(d.neighbors), p)
	return d.out
}

// Snapshot canonically encodes the whole EIG tree plus decision status,
// byte-identical to eigMapDevice.Snapshot. The encoding is kept until
// the state changes, so the rounds after the decision, where the tree no
// longer grows, return the same string without encoding it again.
func (d *eigFlatDevice) Snapshot() string {
	if d.fb != nil {
		return d.fb.Snapshot()
	}
	if d.snap == "" {
		d.snap = d.encodeSnapshot()
	}
	return d.snap
}

// encodeSnapshot walks the shape's presorted slot order in the common
// case; the extra map (non-peer senders only) forces a merged sort.
func (d *eigFlatDevice) encodeSnapshot() string {
	sh := d.shape
	var b strings.Builder
	fmt.Fprintf(&b, "eig(f=%d,in=%s,dec=%v:%s)", sh.f, d.input, d.decided, d.decision)
	if len(d.extra) == 0 {
		for _, s := range sh.sortedSlots() {
			if v := d.vals[s]; v != "" {
				b.WriteByte('|')
				b.WriteString(sh.labels[s])
				b.WriteByte('=')
				b.WriteString(v)
			}
		}
		return b.String()
	}
	type labelValue struct{ label, value string }
	pairs := make([]labelValue, 0, len(d.extra)+len(d.vals)/4)
	for _, s := range sh.sortedSlots() {
		if v := d.vals[s]; v != "" {
			pairs = append(pairs, labelValue{sh.labels[s], v})
		}
	}
	for l, v := range d.extra {
		pairs = append(pairs, labelValue{l, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].label < pairs[j].label })
	for _, p := range pairs {
		b.WriteByte('|')
		b.WriteString(p.label)
		b.WriteByte('=')
		b.WriteString(p.value)
	}
	return b.String()
}

func (d *eigFlatDevice) Output() (sim.Decision, bool) {
	if d.fb != nil {
		return d.fb.Output()
	}
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}
