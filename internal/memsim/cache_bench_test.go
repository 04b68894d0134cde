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
//     its ~0.78 hit ratio (reported as hit-ratio);
//   - miss: clean 1 KiB rows drawn uniformly from a table 100x the cache,
//     so about 1 % of probes hit: the way-prediction miss path (scan, then
//     fill) alone.
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
	// rows times 1 KiB row probes drawn uniformly from a table of
	// tableBytes; with stores, 5 % of them are stores.
	rows := func(b *testing.B, tableBytes uint64, stores bool) {
		c, d := newCache()
		const row = 1024
		rng := rand.New(rand.NewPCG(1, 2))
		draws := make([]uint32, 1<<16)
		for i := range draws {
			draws[i] = uint32(rng.Uint64N(tableBytes/row))<<1 | uint32(rng.Uint64N(20)/19)
			if !stores {
				draws[i] &^= 1
			}
		}
		for _, x := range draws { // warm: 64 MiB of rows fill the cache
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
	}
	b.Run("row-mix", func(b *testing.B) { rows(b, uint64(cfg.LLCBytes)*128/100, true) })
	b.Run("miss", func(b *testing.B) { rows(b, uint64(cfg.LLCBytes)*100, false) })
}
