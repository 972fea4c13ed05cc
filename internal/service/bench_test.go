package service

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// benchBatches pre-builds deterministic rating batches so the bench loop
// measures the store, not the generator.
func benchBatches(n, count, size int) [][]ingest.Rating {
	r := rng.New(17).Child("bench")
	batches := make([][]ingest.Rating, count)
	for i := range batches {
		batches[i] = randomBatch(r, n, size, nil)
	}
	return batches
}

// BenchmarkSnapshotPublish measures one full epoch transition — ingest,
// rescore, incremental detect, COW snapshot publish — on a warm store
// whose snapshot storage recycles, so steady-state publish cost (the
// CloneInto refill plus slice copies) dominates.
func BenchmarkSnapshotPublish(b *testing.B) {
	const n = 200
	s := testStore(b, n, Config{})
	batches := benchBatches(n, 64, 100)
	for _, batch := range batches {
		if _, err := s.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// publish100k is the preloaded store BenchmarkSnapshotPublish100k times:
// 100k nodes and ~1M ratings, built once per process because the
// preload costs far more than the timed epochs. The store is never
// closed; it lives as long as the benchmark process.
var publish100k = sync.OnceValues(func() (*Store, *obs.Registry) {
	const n = 100_000
	reg := obs.NewRegistry(nil)
	s, err := New(Config{
		Nodes:    n,
		Engine:   reputation.Summation{},
		Detector: core.NewOptimized(core.DefaultThresholds()),
		Obs:      reg,
	})
	if err != nil {
		panic(err)
	}
	for _, batch := range benchBatches(n, 10, 100_000) {
		if _, err := s.Apply(batch); err != nil {
			panic(err)
		}
	}
	return s, reg
})

// BenchmarkSnapshotPublish100k times 1k-rating epochs on a 100k-node
// store preloaded with ~1M ratings, where the snapshot publish would cost
// O(n + nnz) if it re-copied the whole ledger. rows_copied/op is the
// service.publish_rows_copied delta per epoch: the rows the generation
// refresh re-copied into the recycled snapshot, which scales with the
// batches' dirty rows, not with n.
func BenchmarkSnapshotPublish100k(b *testing.B) {
	s, reg := publish100k()
	batches := benchBatches(s.Nodes(), 64, 1_000)
	copied := reg.Counter("service.publish_rows_copied")
	before := copied.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(copied.Value()-before)/float64(b.N), "rows_copied/op")
}

// BenchmarkServeQueryUnderIngest measures reader-side snapshot queries
// (Acquire, score + pair reads, Release) while a background writer
// applies batches as fast as the store allows — the latency a service
// client sees under full ingest pressure, and the bench that keeps the
// "queries never block ingest" property visible in the bench artifact.
func BenchmarkServeQueryUnderIngest(b *testing.B) {
	const n = 200
	s := testStore(b, n, Config{})
	batches := benchBatches(n, 64, 100)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := s.Apply(batches[i%len(batches)]); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sn := s.Acquire()
		sink += sn.Score(i % n)
		if sn.IsFlagged(i % n) {
			sink++
		}
		sn.Release()
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	_ = sink
}
