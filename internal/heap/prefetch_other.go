//go:build !amd64

package heap

// prefetch is a hint with no portable form: elsewhere it does nothing.
func prefetch(p *uint64) {}
