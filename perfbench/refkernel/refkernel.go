// Package refkernel is the benchmark's frozen reference kernel: a fixed
// piece of single-threaded CPU and cache work whose run time says how
// fast the host is running at the moment it is timed. The benchmark
// times it immediately before and after every measured interval and
// scales the interval by R0/R, which cancels the slow speed drift of a
// shared host.
//
// The kernel is frozen. Changing anything here (table size, step
// counts, the mixing function) changes every drift-corrected number the
// benchmark reports, so it is a benchmark change that resets the
// baseline, never a tuning knob.
//
// The package imports nothing, allocates nothing (the table is a
// package-level array filled once at init), and runs on the calling
// goroutine only, so the program's heap and scheduler cannot slow it
// beyond what the host itself does.
package refkernel

const (
	// tableLen slots of 4 bytes: a 1 MiB table, larger than a core's L1
	// and L2 but inside the shared last-level cache, so the walk feels
	// cache and memory contention from neighbours as the engine does.
	tableLen = 1 << 18
	// walkSteps dependent loads scattered over the whole table, then
	// mixSteps rounds of register-only arithmetic: the engine's work is
	// part pointer chasing through maps and trees, part plain
	// computation, and the kernel weighs the two about equally (each
	// half a millisecond or so).
	walkSteps = 1 << 16
	mixSteps  = 1 << 19
	// Checksum is Run's result. It never changes; a different value
	// means the kernel was edited or the machine is broken.
	Checksum uint64 = 0x8df09a0009cbd1e
)

// table holds one cycle through all of its indices (Sattolo's
// algorithm), so every load depends on the previous one and the walk
// visits the table in a scattered order.
var table [tableLen]uint32

func init() {
	for i := range table {
		table[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := tableLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		table[i], table[j] = table[j], table[i]
	}
}

// Run walks the cycle, folding each index into an FNV-style
// multiply-xorshift hash, then keeps mixing the hash in registers, and
// returns it. The result is always Checksum.
func Run() uint64 {
	h := uint64(0xcbf29ce484222325)
	p := uint32(0)
	for i := 0; i < walkSteps; i++ {
		p = table[p]
		h ^= uint64(p)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for i := 0; i < mixSteps; i++ {
		h ^= uint64(i)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}
