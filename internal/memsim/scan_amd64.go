package memsim

// scanKernel reports whether the host can run scan16: the CPU has AVX2 and
// the OS saves the YMM registers. NewCache reads it; tests clear it to run
// the portable scan on an AVX2 host.
var scanKernel = hasAVX2()

// scan16 is scanSet for a 16-way set: keys and stamps point at the set's
// first way. It returns the lowest way holding key and 0, or -1 and the
// set's least stamp. Every stamp must be below 2^63 (the stamps are
// compared as signed words; see Cache).
//
//go:noescape
func scan16(keys, stamps *uint64, key uint64) (way int, least uint64)

// hasAVX2 probes CPUID and XGETBV once.
func hasAVX2() bool
