package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"flm/internal/runcache"
)

// execForBlob runs a counting system and returns its recorded run plus
// the cache key it was (or would be) stored under.
func execForBlob(t testing.TB, tag string, rounds int, opts ExecuteOpts) *Run {
	t.Helper()
	var steps atomic.Int64
	r, err := ExecuteWith(countingSystem(t, triangle(t), tag, &steps), rounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertRunsEqual compares every observable field of two runs, including
// the reconstructed graph.
func assertRunsEqual(t testing.TB, got, want *Run) {
	t.Helper()
	if !reflect.DeepEqual(got.G.Names(), want.G.Names()) {
		t.Fatalf("names: got %v want %v", got.G.Names(), want.G.Names())
	}
	if !reflect.DeepEqual(got.G.DirectedEdges(), want.G.DirectedEdges()) {
		t.Fatalf("edges: got %v want %v", got.G.DirectedEdges(), want.G.DirectedEdges())
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds: got %d want %d", got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.Inputs, want.Inputs) {
		t.Fatalf("inputs: got %v want %v", got.Inputs, want.Inputs)
	}
	if !reflect.DeepEqual(got.Snapshots, want.Snapshots) {
		t.Fatalf("snapshots: got %v want %v", got.Snapshots, want.Snapshots)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("edge behaviors: got %v want %v", got.Edges, want.Edges)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("decisions: got %v want %v", got.Decisions, want.Decisions)
	}
}

// phaseDevice holds a long state of its own that changes every second
// round and returns to an earlier value (phases 0 0 1 1 0 0 ...), and
// broadcasts the matching long payload on every port: the repeats the
// blob's string table is for.
type phaseDevice struct {
	self  string
	ports int
	round int
	out   Outbox
}

func (d *phaseDevice) Init(self string, neighbors []string, input Input) {
	d.self, d.ports = self, len(neighbors)
}

func (d *phaseDevice) phase() string {
	return d.self + "/" + strings.Repeat("long-distinctive-", 8) + EncodeInt(d.round/2%2)
}

func (d *phaseDevice) Step(round int, inbox Inbox) Outbox {
	d.round = round
	d.out = Broadcast(d.out, d.ports, Payload("payload:"+d.phase()))
	return d.out
}

func (d *phaseDevice) Snapshot() string          { return "state:" + d.phase() }
func (d *phaseDevice) Output() (Decision, bool)  { return Decision{}, false }
func (d *phaseDevice) DeviceFingerprint() string { return "test/phase" }

// phaseRun is a full recording of phaseDevices on the triangle.
func phaseRun(t testing.TB, rounds int) *Run {
	t.Helper()
	g := triangle(t)
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = func(self string, neighbors []string, input Input) Device {
			d := &phaseDevice{}
			d.Init(self, neighbors, input)
			return d
		}
		p.Inputs[name] = "0"
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExecuteWith(sys, rounds, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// recordedStrings lists every snapshot and payload of a full recording,
// in blob order.
func recordedStrings(r *Run) []string {
	var all []string
	for _, row := range r.Snapshots {
		all = append(all, row...)
	}
	for _, e := range r.G.DirectedEdges() {
		for _, p := range r.Edges[e] {
			all = append(all, string(p))
		}
	}
	return all
}

// TestRunBlobWritesEachStringOnce: every distinct snapshot and payload
// of a run reaches the blob exactly once, however many rounds and ports
// repeat it.
func TestRunBlobWritesEachStringOnce(t *testing.T) {
	r := phaseRun(t, 6)
	blob, ok := RunCodec{}.Encode(r)
	if !ok {
		t.Fatal("Encode declined a full-recording run")
	}
	distinct := map[string]bool{}
	for _, s := range recordedStrings(r) {
		distinct[s] = true
	}
	if len(distinct) != 12 { // 3 nodes x 2 phases x (state, payload)
		t.Fatalf("run records %d distinct strings, want 12", len(distinct))
	}
	for s := range distinct {
		if n := bytes.Count(blob, []byte(s)); n != 1 {
			t.Errorf("%q appears %d times in the blob, want once", s, n)
		}
	}
}

// TestRunBlobDecodedRepeatsShareOneString: a decoded full recording keeps
// one string per distinct snapshot or payload, as a cold run does.
func TestRunBlobDecodedRepeatsShareOneString(t *testing.T) {
	blob, ok := RunCodec{}.Encode(phaseRun(t, 6))
	if !ok {
		t.Fatal("Encode declined a full-recording run")
	}
	v, err := RunCodec{}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	for _, s := range recordedStrings(v.(*Run)) {
		if p, seen := first[s]; !seen {
			first[s] = unsafe.StringData(s)
		} else if unsafe.StringData(s) != p {
			t.Fatalf("decoded repeat of %q is a copy, not the shared string", s)
		}
	}
}

func TestRunBlobRoundTripFull(t *testing.T) {
	r := execForBlob(t, "blob-full", 3, FullRecording)
	data, ok := RunCodec{}.Encode(r)
	if !ok {
		t.Fatal("Encode declined a full-recording run")
	}
	v, err := RunCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEqual(t, v.(*Run), r)
}

func TestRunBlobRoundTripDecisionOnly(t *testing.T) {
	r := execForBlob(t, "blob-fast", 2, ExecuteOpts{})
	if r.Snapshots != nil || r.Edges != nil {
		t.Fatal("fast-mode run unexpectedly recorded snapshots/edges")
	}
	data, ok := RunCodec{}.Encode(r)
	if !ok {
		t.Fatal("Encode declined a decision-only run")
	}
	v, err := RunCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*Run)
	assertRunsEqual(t, got, r)
	if got.Snapshots != nil || got.Edges != nil {
		t.Fatal("decision-only blob decoded with snapshots/edges populated")
	}
}

func TestRunBlobEncodeDeclines(t *testing.T) {
	if _, ok := (RunCodec{}).Encode("not a run"); ok {
		t.Fatal("Encode accepted a non-Run value")
	}
	if _, ok := (RunCodec{}).Encode((*Run)(nil)); ok {
		t.Fatal("Encode accepted a nil run")
	}
	if _, ok := (RunCodec{}).Encode(&Run{}); ok {
		t.Fatal("Encode accepted a run with no graph")
	}
}

// TestRunBlobTruncationRejected chops a valid blob at every length and
// requires a decode error — never a panic, never a silently partial run.
func TestRunBlobTruncationRejected(t *testing.T) {
	r := execForBlob(t, "blob-trunc", 3, FullRecording)
	data, ok := RunCodec{}.Encode(r)
	if !ok {
		t.Fatal("Encode declined")
	}
	for n := 0; n < len(data); n++ {
		if _, err := (RunCodec{}).Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted a blob truncated to %d/%d bytes", n, len(data))
		}
	}
	// Trailing garbage must also be rejected: the frame is exact.
	if _, err := (RunCodec{}).Decode(append(append([]byte(nil), data...), 0x00)); err == nil {
		t.Fatal("Decode accepted a blob with trailing bytes")
	}
}

// TestRunBlobByteFlipsNeverPanic flips each byte of a valid blob in
// turn. The disk store's digest catches flips before Decode ever sees
// them in production; this test is about robustness of Decode itself —
// it must return (possibly wrong data with) an error or a value, never
// crash or allocate absurdly.
func TestRunBlobByteFlipsNeverPanic(t *testing.T) {
	r := execForBlob(t, "blob-flip", 2, FullRecording)
	data, ok := RunCodec{}.Encode(r)
	if !ok {
		t.Fatal("Encode declined")
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked on byte %d flipped: %v", i, p)
				}
			}()
			RunCodec{}.Decode(mut)
		}()
	}
}

// blobHead is the part of a crafted blob before its snapshot and edge
// sections: nodes with the given names, the path over them as edges, no
// rounds, empty inputs and decisions, then the flags byte.
func blobHead(flags byte, names ...string) []byte {
	b := appendBlobStr(nil, runBlobMagic)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendBlobStr(b, name)
	}
	b = binary.AppendUvarint(b, uint64(max(len(names)-1, 0))) // edges
	for u := 1; u < len(names); u++ {
		b = binary.AppendUvarint(b, uint64(u-1))
		b = binary.AppendUvarint(b, uint64(u))
	}
	b = binary.AppendUvarint(b, 0) // rounds
	for range names {
		b = appendBlobStr(b, "") // input
	}
	for range names {
		b = appendBlobStr(b, "")       // decision value
		b = binary.AppendUvarint(b, 0) // decision round
	}
	return append(b, flags)
}

// craftedRowsBlob is a 27-byte blob claiming one node whose snapshot
// row holds 2^20 strings, with no bytes behind the claim.
func craftedRowsBlob() []byte {
	return binary.AppendUvarint(blobHead(1, "a"), 1<<20)
}

// craftedRefsBlob is one node whose snapshot row is a new table entry
// of 32 KiB followed by refs references to it, one byte each.
func craftedRefsBlob(refs int) []byte {
	b := binary.AppendUvarint(blobHead(1, "a"), uint64(1+refs))
	b = appendBlobStr(append(b, 0), strings.Repeat("s", 32<<10))
	for i := 0; i < refs; i++ {
		b = append(b, 1)
	}
	return b
}

// Malformed and unusual table tags, as fuzz seeds and for
// TestRunBlobTableTags.
var (
	// A row of two: a new entry, then a reference to entry 2 of a table
	// of one.
	blobRefPastTable = append(appendBlobStr(append(binary.AppendUvarint(blobHead(1, "a"), 2), 0), "x"), 2)
	// A row of one whose first tag refers to entry 1 of an empty table.
	blobRefFirst = append(binary.AppendUvarint(blobHead(1, "a"), 1), 1)
	// A row of one: a new-entry marker with no length behind it.
	blobMarkerCut = append(binary.AppendUvarint(blobHead(1, "a"), 1), 0)
	// Nodes a-b. Snapshot rows a: new "s", b: reference to it; edge a->b
	// refers to the snapshot string, b->a is a new entry "p". Valid: the
	// table spans both sections.
	blobEdgeRefSnapshot = func() []byte {
		b := blobHead(3, "a", "b")
		b = appendBlobStr(append(binary.AppendUvarint(b, 1), 0), "s")
		b = append(binary.AppendUvarint(b, 1), 1)
		b = append(binary.AppendUvarint(b, 1), 1)
		return appendBlobStr(append(binary.AppendUvarint(b, 1), 0), "p")
	}()
)

// TestRunBlobTableTags: a reference past the table, a reference before
// any entry and a cut-short new entry are rejected; a payload that
// refers to a snapshot string decodes to that very string.
func TestRunBlobTableTags(t *testing.T) {
	for name, blob := range map[string][]byte{
		"reference past the table": blobRefPastTable,
		"reference as first entry": blobRefFirst,
		"new-entry marker cut":     blobMarkerCut,
	} {
		if _, err := (RunCodec{}).Decode(blob); err == nil {
			t.Errorf("Decode accepted a blob with a %s", name)
		}
	}
	v, err := RunCodec{}.Decode(blobEdgeRefSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	r := v.(*Run)
	ab, err := r.EdgeBehavior("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := r.EdgeBehavior("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshots, [][]string{{"s"}, {"s"}}) || !reflect.DeepEqual(ab, []Payload{"s"}) || !reflect.DeepEqual(ba, []Payload{"p"}) {
		t.Fatalf("decoded snapshots %q, a->b %q, b->a %q", r.Snapshots, ab, ba)
	}
	if unsafe.StringData(string(ab[0])) != unsafe.StringData(r.Snapshots[0][0]) {
		t.Error("the payload that refers to a snapshot string does not share it")
	}
}

// decodeAlloc returns the fewest bytes one Decode of blob allocated over
// five tries, and the last decode's result.
func decodeAlloc(blob []byte) (uint64, any, error) {
	least := uint64(math.MaxUint64)
	var v any
	var err error
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = RunCodec{}.Decode(blob)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, v, err
}

// TestRunBlobDecodeAllocationBoundedByInput: a row count is bounded by
// the bytes left, so a blob that claims 2^20 snapshots it does not hold
// is rejected without allocating for them (16 MiB of string headers).
// And a reference costs its string header, nothing more: a 32 KiB
// string referred to thousands of times is allocated once.
func TestRunBlobDecodeAllocationBoundedByInput(t *testing.T) {
	blob := craftedRowsBlob()
	if len(blob) != 27 {
		t.Fatalf("crafted blob is %d bytes, want 27", len(blob))
	}
	least, _, err := decodeAlloc(blob)
	if err == nil {
		t.Fatal("Decode accepted a blob whose snapshot rows are missing")
	}
	if least >= 64<<10 {
		t.Fatalf("Decode of a 27-byte blob allocated %d bytes, want under 64 KiB", least)
	}

	// The same run with an empty row is the baseline: graph, run and
	// row headers. 4,095 references and their new entry make a row of
	// 4,096 string headers, exactly 64 KiB.
	const refs = 4095
	base, _, err := decodeAlloc(binary.AppendUvarint(blobHead(1, "a"), 0))
	if err != nil {
		t.Fatal(err)
	}
	got, v, err := decodeAlloc(craftedRefsBlob(refs))
	if err != nil {
		t.Fatal(err)
	}
	row := v.(*Run).Snapshots[0]
	for i, s := range row {
		if len(s) != 32<<10 || unsafe.StringData(s) != unsafe.StringData(row[0]) {
			t.Fatalf("snapshot %d of the row is not the row's first string", i)
		}
	}
	const table = 64 // the table's one entry, in its smallest backing array
	if limit := base + 32<<10 + 16*(refs+1) + table; got > limit {
		t.Fatalf("Decode of a 32 KiB string and %d references allocated %d bytes, want at most %d", refs, got, limit)
	}
}

// FuzzRunCodecDecode feeds Decode arbitrary bytes. It must never panic,
// and a run it accepts must survive a round trip: decoding Encode's blob
// of it gives an equal run. The seeds run in plain go test.
func FuzzRunCodecDecode(f *testing.F) {
	for _, r := range []*Run{
		execForBlob(f, "fuzz-full", 3, FullRecording),
		execForBlob(f, "fuzz-fast", 2, ExecuteOpts{}),
	} {
		blob, ok := RunCodec{}.Encode(r)
		if !ok {
			f.Fatal("Encode declined a seed run")
		}
		f.Add(blob)
		for _, n := range []int{1, 16, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:n])
		}
		for _, i := range []int{15, 17, len(blob) / 2, len(blob) - 1} {
			flipped := append([]byte(nil), blob...)
			flipped[i] ^= 0xff
			f.Add(flipped)
		}
	}
	for _, blob := range [][]byte{craftedRowsBlob(), craftedRefsBlob(3), blobRefPastTable, blobRefFirst, blobMarkerCut, blobEdgeRefSnapshot} {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := RunCodec{}.Decode(data)
		if err != nil {
			return
		}
		r := v.(*Run)
		blob, ok := RunCodec{}.Encode(r)
		if !ok {
			return
		}
		again, err := RunCodec{}.Decode(blob)
		if err != nil {
			t.Fatalf("Decode rejected the re-encoded blob of a run it accepted: %v", err)
		}
		assertRunsEqual(t, again.(*Run), r)
	})
}

// TestDiskWarmStart is the cross-process reuse proof at the sim layer:
// execute, wipe L1 (as a fresh process would start), re-execute — the
// result comes off disk with zero device steps and identical content.
func TestDiskWarmStart(t *testing.T) {
	restoreOn := runcache.SetEnabled(true)
	defer restoreOn()
	ResetRunCache()
	restore, err := SetRunCacheDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	g := triangle(t)
	var steps atomic.Int64
	first, err := ExecuteWith(countingSystem(t, g, "warm-start", &steps), 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	coldSteps := steps.Load()
	if coldSteps == 0 {
		t.Fatal("cold run stepped no devices")
	}

	ResetRunCache() // simulate a fresh process: empty L1, warm disk
	st0 := RunCacheStats()
	second, err := ExecuteWith(countingSystem(t, g, "warm-start", &steps), 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	if steps.Load() != coldSteps {
		t.Fatalf("warm-start run stepped devices (%d -> %d)", coldSteps, steps.Load())
	}
	st := RunCacheStats().Since(st0)
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm-start stats %+v, want exactly one disk hit and no misses", st)
	}
	if second == first {
		t.Fatal("warm-start returned the evicted L1 pointer; expected a decoded copy")
	}
	assertRunsEqual(t, second, first)
}

// runBlobV1 is the blob the v1 codec wrote for a full recording: the
// head v2 writes too, then every snapshot and payload in full, with its
// length.
func runBlobV1(t testing.TB, r *Run) []byte {
	t.Helper()
	head := *r
	head.Snapshots, head.Edges = nil, nil
	v2, ok := RunCodec{}.Encode(&head)
	if !ok {
		t.Fatal("Encode declined")
	}
	b := append([]byte(nil), v2...)
	copy(b, appendBlobStr(nil, "sim.runblob/v1")) // the magics are equally long
	b[len(b)-1] = 3                               // flags: snapshots and edges
	for _, row := range r.Snapshots {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, s := range row {
			b = appendBlobStr(b, s)
		}
	}
	for _, e := range r.G.DirectedEdges() {
		b = binary.AppendUvarint(b, uint64(len(r.Edges[e])))
		for _, p := range r.Edges[e] {
			b = appendBlobStr(b, string(p))
		}
	}
	return b
}

// TestDiskStaleV1BlobRecomputed: a digest-valid blob in the v1 format
// under a run's key fails Decode, so the run is recomputed, counted once
// as corrupt, and its blob rewritten in a form that decodes.
func TestDiskStaleV1BlobRecomputed(t *testing.T) {
	restoreOn := runcache.SetEnabled(true)
	defer restoreOn()
	ResetRunCache()
	restore, err := SetRunCacheDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	g := triangle(t)
	var steps atomic.Int64
	sys := countingSystem(t, g, "stale-v1", &steps)
	key, ok := systemKey(sys, 3, FullRecording)
	if !ok {
		t.Fatal("counting system has no run key")
	}
	want, err := executeCore(context.Background(), countingSystem(t, g, "stale-v1", &steps), 3, FullRecording, false)
	if err != nil {
		t.Fatal(err)
	}
	store := runCache.Store()
	if err := store.Put(key, runBlobV1(t, want)); err != nil {
		t.Fatal(err)
	}
	if _, err := (RunCodec{}).Decode(runBlobV1(t, want)); err == nil {
		t.Fatal("Decode accepted a v1 blob")
	}

	before, st0 := steps.Load(), RunCacheStats()
	got, err := ExecuteWith(sys, 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	st := RunCacheStats().Since(st0)
	if steps.Load() == before || st.DiskCorrupt != 1 || st.DiskHits != 0 || st.Misses != 1 || st.DiskWrites != 1 {
		t.Fatalf("over a v1 blob: %d steps, stats %+v; want a recompute, one corrupt blob and one rewrite",
			steps.Load()-before, st)
	}
	assertRunsEqual(t, got, want)
	data, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := RunCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("rewritten blob does not decode: %v", err)
	}
	assertRunsEqual(t, v.(*Run), want)
}

// TestDiskTierRestore: uninstalling the disk tier stops writes.
func TestDiskTierRestore(t *testing.T) {
	restoreOn := runcache.SetEnabled(true)
	defer restoreOn()
	ResetRunCache()
	dir := t.TempDir()
	restore, err := SetRunCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if RunCacheDir() != dir {
		t.Fatalf("RunCacheDir = %q, want %q", RunCacheDir(), dir)
	}
	restore()
	if RunCacheDir() != "" {
		t.Fatalf("RunCacheDir after restore = %q, want \"\"", RunCacheDir())
	}

	var steps atomic.Int64
	if _, err := ExecuteWith(countingSystem(t, triangle(t), "no-tier", &steps), 2, FullRecording); err != nil {
		t.Fatal(err)
	}
	if st := RunCacheStats(); st.DiskWrites != 0 {
		t.Fatalf("uninstalled disk tier received %d writes", st.DiskWrites)
	}
}
