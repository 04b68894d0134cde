package heap

// prefetch asks the host CPU to start loading the cache line holding *p
// (PREFETCHT0). It reads nothing the program sees and cannot fault.
//
//go:noescape
func prefetch(p *uint64)
