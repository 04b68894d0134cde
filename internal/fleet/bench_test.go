package fleet

import (
	"testing"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/memsim"
)

// benchTimelines is a fixed synthetic fleet: eight instances pausing for
// 2-4 ms every 25 ms, out of phase with each other, for a second — the
// shape (not the data) of the repository benchmark's fleet-serve workload.
func benchTimelines() ([]*cassandra.Timeline, memsim.Time) {
	const window = memsim.Second
	tls := make([]*cassandra.Timeline, 8)
	for i := range tls {
		var ps []cassandra.Interval
		for t := memsim.Time(i+1) * 3 * memsim.Millisecond; t < window; t += 25 * memsim.Millisecond {
			ps = append(ps, cassandra.Interval{Start: t, End: t + memsim.Time(2+i%3)*memsim.Millisecond})
		}
		tls[i] = cassandra.NewTimeline(ps)
	}
	return tls, window
}

func benchTraffic() Traffic {
	return Traffic{
		QPS: 240_000, Service: 60 * memsim.Microsecond, Servers: 16,
		Tenants: 256, Theta: 0.99, Seed: 1,
		HedgeAfter: 2 * memsim.Millisecond,
		RetryAfter: 2500 * memsim.Microsecond, MaxRetries: 2,
	}
}

// BenchmarkSimulateTraffic replays 240k requests per iteration, hedges
// and retries on; ns/op over stats.Requests is the cost per request.
func BenchmarkSimulateTraffic(b *testing.B) {
	tls, window := benchTimelines()
	tr := benchTraffic()
	b.ReportAllocs()
	var requests int64
	for i := 0; i < b.N; i++ {
		_, stats, _, err := SimulateTraffic(tls, window, tr)
		if err != nil {
			b.Fatal(err)
		}
		requests += stats.Requests
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(requests), "ns/req")
}

// BenchmarkMergeSorted merges the eight series that replay produces.
func BenchmarkMergeSorted(b *testing.B) {
	tls, window := benchTimelines()
	perI, stats, _, err := SimulateTraffic(tls, window, benchTraffic())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := MergeSorted(perI); int64(len(m)) != stats.Requests {
			b.Fatalf("merged %d of %d latencies", len(m), stats.Requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*stats.Requests), "ns/elem")
}
