package sim

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

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

// craftedRowsBlob is a 27-byte blob claiming one node whose snapshot
// row holds 2^20 strings, with no bytes behind the claim.
func craftedRowsBlob() []byte {
	b := appendBlobStr(nil, runBlobMagic)
	b = binary.AppendUvarint(b, 1) // nodes
	b = appendBlobStr(b, "a")
	b = binary.AppendUvarint(b, 0) // edges
	b = binary.AppendUvarint(b, 0) // rounds
	b = appendBlobStr(b, "")       // input
	b = appendBlobStr(b, "")       // decision value
	b = binary.AppendUvarint(b, 0) // decision round
	b = append(b, 1)               // flags: snapshots recorded
	return binary.AppendUvarint(b, 1<<20)
}

// TestRunBlobDecodeAllocationBoundedByInput: a row count is bounded by
// the bytes left, so a blob that claims 2^20 snapshots it does not hold
// is rejected without allocating for them (16 MiB of string headers).
func TestRunBlobDecodeAllocationBoundedByInput(t *testing.T) {
	blob := craftedRowsBlob()
	if len(blob) != 27 {
		t.Fatalf("crafted blob is %d bytes, want 27", len(blob))
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunCodec{}.Decode(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("Decode accepted a blob whose snapshot rows are missing")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("Decode of a 27-byte blob allocated %d bytes, want under 64 KiB", least)
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
	f.Add(craftedRowsBlob())
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
