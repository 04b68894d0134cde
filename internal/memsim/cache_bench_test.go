package memsim

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkCacheProbe is the two-second loop for changes to cache.go
// (go test -run '^$' -bench CacheProbe ./internal/memsim). Every case
// drives touchRange on the default LLC geometry (1 MiB, 16-way):
//
//   - hit: 256 B reads of a resident 16 KiB set, all predicted-way hits;
//   - miss-stream: 4 KiB streaming stores that always miss and, once the
//     cache has filled, always evict a dirty line;
//   - row-mix: 1 KiB rows drawn uniformly from a table 1.28x the cache, 5 %
//     of them stores — the shape of the mut-ycsb-b benchmark workload, at
//     its ~0.78 hit ratio (reported as hit-ratio).
func BenchmarkCacheProbe(b *testing.B) {
	cfg := DefaultConfig()
	newCache := func() (*Cache, *Device) {
		return NewCache(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCHitLatency), NewDevice("nvm", OptaneProfile(), 0)
	}
	b.Run("hit", func(b *testing.B) {
		c, d := newCache()
		for j := uint64(0); j < 64; j++ {
			c.touchRange(d, j*256, 256, 0, false, true)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.touchRange(d, uint64(i%64)*256, 256, Time(i), false, true)
		}
	})
	b.Run("miss-stream", func(b *testing.B) {
		c, d := newCache()
		for i := 0; i < b.N; i++ {
			c.touchRange(d, uint64(i)*4096, 4096, Time(i), true, true)
		}
	})
	b.Run("row-mix", func(b *testing.B) {
		c, d := newCache()
		const row = 1024
		rows := uint64(cfg.LLCBytes) / row * 128 / 100
		rng := rand.New(rand.NewPCG(1, 2))
		draws := make([]uint32, 1<<16)
		for i := range draws {
			draws[i] = uint32(rng.Uint64N(rows))<<1 | uint32(rng.Uint64N(20)/19)
		}
		for _, x := range draws { // warm: the table is 20x smaller than this
			c.touchRange(d, uint64(x>>1)*row, row, 0, false, false)
		}
		before := c.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := draws[i%len(draws)]
			c.touchRange(d, uint64(x>>1)*row, row, Time(i), x&1 != 0, false)
		}
		s := c.Stats()
		hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
	})
}
