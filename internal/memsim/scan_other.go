//go:build !amd64

package memsim

// scanKernel is false off amd64: every set runs the portable scan.
var scanKernel = false

// scan16 has no portable form; scanKernel keeps Cache.scan from calling it.
func scan16(keys, stamps *uint64, key uint64) (way int, least uint64) {
	panic("memsim: no set-scan kernel on this architecture")
}
