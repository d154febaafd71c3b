package byzantine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flm/internal/sim"
)

// maxEIGFlatSlots bounds the flat tree's slot space (sum of n^r over
// levels 1..f+1); a peer set past the bound is a build fault.
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

// eigShapeFor returns the interned shape for (f, sortedPeers), or an
// error if the flat representation cannot index this peer set: no peers
// or more than 64 (membership masks are one word), a negative fault
// bound, duplicate or empty names, names containing claim-codec
// delimiters, or a slot space past maxEIGFlatSlots.
func eigShapeFor(f int, sortedPeers []string, fp string) (*eigShape, error) {
	if v, ok := eigShapes.Load(fp); ok {
		return v.(*eigShape), nil
	}
	n := len(sortedPeers)
	if n == 0 || n > 64 {
		return nil, fmt.Errorf("byzantine: EIG indexes 1 to 64 peers, not %d", n)
	}
	if f < 0 {
		return nil, fmt.Errorf("byzantine: EIG fault bound %d is negative", f)
	}
	for i, p := range sortedPeers {
		switch {
		case p == "":
			return nil, fmt.Errorf("byzantine: EIG peer name is empty")
		case strings.ContainsAny(p, ";=/"):
			return nil, fmt.Errorf("byzantine: EIG peer name %q contains a claim delimiter (;=/)", p)
		case i > 0 && p == sortedPeers[i-1]:
			return nil, fmt.Errorf("byzantine: EIG peer name %q is listed twice", p)
		}
	}
	offset := make([]int, f+3)
	levelSize := 1
	total := 0
	for r := 1; r <= f+1; r++ {
		offset[r] = total
		if levelSize > maxEIGFlatSlots/n || total > maxEIGFlatSlots-levelSize*n {
			return nil, fmt.Errorf("byzantine: EIG tree for f=%d over %d peers exceeds %d slots", f, n, maxEIGFlatSlots)
		}
		levelSize *= n
		total += levelSize
	}
	offset[f+2] = total

	sh := &eigShape{
		f:      f,
		n:      n,
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
	return actual.(*eigShape), nil
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

// eigFlatDevice is the EIG device. It builds the EIG tree over f+1
// relay levels: level-r labels are sequences of r distinct peer names,
// and val(σ·j) is what j reported for label σ. After the final level it
// resolves the tree bottom-up by strict majority and decides the root
// value. The tree lives in a contiguous value slice indexed by the
// shared shape, claims are parsed without splitting, and resolution runs
// on (level, position) pairs with small-slice tallies instead of maps.
//
// A map-keyed reference implementation lives in the tests as its oracle
// (TestFlatEIGMatchesMapReference).
type eigFlatDevice struct {
	shape    *eigShape
	selfIdx  int
	portPeer []int // port -> peer digit
	input    string
	vals     []string // slot -> value; "" = absent (stored values are never empty)
	claims   []string
	decided  bool
	decision string
	out      sim.Outbox
	snap     string // last Snapshot; "" once Init or Step changes the tree or decision
}

var _ sim.Device = (*eigFlatDevice)(nil)
var _ sim.Fingerprinter = (*eigFlatDevice)(nil)

// DeviceFingerprint is the constructor identity: fault bound and peer
// set. Everything else the device does is determined by these plus the
// (self, neighbors, input) triple the execution cache keys separately.
func (d *eigFlatDevice) DeviceFingerprint() string { return d.shape.fp }

func (d *eigFlatDevice) Init(self string, neighbors []string, input sim.Input) {
	d.init(self, sortedNames(neighbors), input)
}

// init reads the sorted neighbors slice. It panics if self or a
// neighbor is outside the peer set: labels ending in that name have no
// slot.
func (d *eigFlatDevice) init(self string, neighbors []string, input sim.Input) {
	sh := d.shape
	idx, ok := sh.index[self]
	if !ok {
		panic(fmt.Errorf("byzantine: EIG self %q is not in the peer set", self))
	}
	d.selfIdx = idx
	d.portPeer = make([]int, len(neighbors))
	for i, nb := range neighbors {
		j, ok := sh.index[nb]
		if !ok {
			panic(fmt.Errorf("byzantine: EIG neighbor %q of %q is not in the peer set", nb, self))
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
	d.decided = false
	d.decision = ""
	d.snap = ""
}

// Step implements the EIG schedule: Step(0) broadcasts the input (level-1
// claims); Step(r) for 1 <= r <= f absorbs level-r claims and relays
// level-(r+1) claims; Step(f+1) absorbs the final level and decides.
func (d *eigFlatDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
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
// given port, storing val(σ·sender) = v for each well-formed claim (σ, v)
// with |σ| = level-1, sender ∉ σ, and every name of σ a distinct peer.
// The payload is walked in place (the claim codec is flat: claims split
// on ';', label from value at the first '=').
func (d *eigFlatDevice) absorb(port int, payload sim.Payload, level int) {
	if payload == sim.None {
		return
	}
	sIdx := d.portPeer[port]
	s := string(payload)
	for {
		claim := s
		next := strings.IndexByte(s, ';')
		if next >= 0 {
			claim, s = s[:next], s[next+1:]
		}
		d.absorbClaim(sIdx, claim, level)
		if next < 0 {
			return
		}
	}
}

func (d *eigFlatDevice) absorbClaim(sIdx int, claim string, level int) {
	eq := strings.IndexByte(claim, '=')
	if eq < 0 {
		return
	}
	label, v := claim[:eq], sanitizeValue(claim[eq+1:])
	sh := d.shape
	// Parse the label into (position, membership, length); any component
	// that is empty, repeated, or not a peer makes the label invalid.
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
	if ln != level-1 || mask&(uint64(1)<<uint(sIdx)) != 0 {
		return // wrong level, or the sender already appears in the label
	}
	slot := sh.offset[ln+1] + pos*sh.n + sIdx
	if d.vals[slot] == "" { // first claim wins; duplicates are Byzantine noise
		d.vals[slot] = v
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
	sort.Strings(claims)
	d.claims = claims
	return claims
}

// resolveRoot computes the root decision value bottom-up: leaves resolve
// to their stored value, internal positions to the strict majority of
// their children, DefaultValue on ties or missing data. The per-level
// tallies run over small parallel slices; ties break to the smallest
// value.
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
	d.out = sim.Broadcast(d.out, len(d.portPeer), p)
	return d.out
}

// Snapshot canonically encodes the whole EIG tree plus decision status:
// every stored label=value pair in label order. The encoding is kept
// until the state changes, so the rounds after the decision, where the
// tree no longer grows, return the same string without encoding it
// again.
func (d *eigFlatDevice) Snapshot() string {
	if d.snap == "" {
		d.snap = d.encodeSnapshot()
	}
	return d.snap
}

// encodeSnapshot walks the shape's presorted slot order.
func (d *eigFlatDevice) encodeSnapshot() string {
	sh := d.shape
	var b strings.Builder
	fmt.Fprintf(&b, "eig(f=%d,in=%s,dec=%v:%s)", sh.f, d.input, d.decided, d.decision)
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

func (d *eigFlatDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}
