package main

import "fmt"

// workload is one traffic mix the benchmark drives through the service.
// Every size is stated here, so a result names its input exactly.
type workload struct {
	name string
	why  string

	// nodes is the service population; nodes/2000 collusion pairs are
	// planted.
	nodes int
	// preloadRatings is the history applied during set-up, in Apply
	// calls of preloadChunk ratings each.
	preloadRatings int
	preloadChunk   int
	// batch is the rating count of one timed POST /v1/ratings.
	batch int
	// windowCycles and ingestShards configure the store (0 = cumulative
	// ledger, unsharded intake).
	windowCycles int
	ingestShards int
	// eigenTrust selects the EigenTrust engine; otherwise Summation.
	eigenTrust bool
	// activePairs is how many planted pairs rate each other in one
	// generator batch; every pair is active once per pairs/activePairs
	// batches.
	activePairs int
	// queryRate is the open-loop query client's fixed rate, per second.
	// It stays low at n=1M, where a flagged query encodes every score
	// (about 20 MB) and pins its snapshot meanwhile.
	queryRate float64
	// zipfV is the head offset v of seller popularity: the seller of
	// rank r is a target with probability ∝ (v + r)^-1.1. v = 1 is the
	// plain Zipf law.
	zipfV float64
}

// setUps is how many times an untraced run sets the service up; setup_s
// is their median.
const setUps = 3

// epochsPerSecond sets the run length: a run measures epochsPerSecond ×
// --seconds timed epochs (at least minEpochs), about --seconds of POST
// round trips on a 2-CPU host. A count rather than a time budget gives
// every run of a workload the same ledger growth, so a ledger that grows
// through a run costs every run alike.
const epochsPerSecond = 5

// pairs is the number of planted collusion pairs.
func (w workload) pairs() int { return w.nodes / 2000 }

// period is the number of generator batches between two activations of
// one planted pair.
func (w workload) period() int { return w.pairs() / w.activePairs }

// preloadBatches is the number of generator batches the preload holds.
func (w workload) preloadBatches() int { return w.preloadRatings / w.batch }

// preloadEpochs is the number of Apply calls, and so epochs, the preload
// takes.
func (w workload) preloadEpochs() int { return w.preloadRatings / w.preloadChunk }

// lateBatches is the length of the timed prefix in which the late pairs
// first become active: the pairs whose activation falls in it are held
// out of the preload.
func (w workload) lateBatches() int { return min(w.period(), minEpochs) / 2 }

// timedEpochs is the number of timed epochs a run of the given length
// measures.
func (w workload) timedEpochs(seconds int) int { return max(minEpochs, epochsPerSecond*seconds) }

// validate rejects a shape the generator cannot produce exactly.
func (w workload) validate() error {
	switch {
	case w.pairs() < 1 || w.activePairs < 1 || w.pairs()%w.activePairs != 0:
		return fmt.Errorf("%s: %d pairs not divisible into %d active per batch", w.name, w.pairs(), w.activePairs)
	case w.activePairs*plantedPerPair > w.batch:
		return fmt.Errorf("%s: planted ratings exceed the %d-rating batch", w.name, w.batch)
	case w.preloadRatings%w.preloadChunk != 0 || w.preloadChunk%w.batch != 0:
		return fmt.Errorf("%s: preload %d / chunk %d / batch %d do not nest", w.name, w.preloadRatings, w.preloadChunk, w.batch)
	case w.preloadBatches() < w.period():
		// Every pair but the late ones is active during the preload.
		return fmt.Errorf("%s: preload of %d batches shorter than the %d-batch activation period", w.name, w.preloadBatches(), w.period())
	case w.lateBatches() < 1:
		return fmt.Errorf("%s: activation period %d leaves no late pairs", w.name, w.period())
	case w.zipfV < 1:
		return fmt.Errorf("%s: zipfV %v below 1", w.name, w.zipfV)
	case w.windowCycles > 0 && w.preloadChunk != w.batch:
		return fmt.Errorf("%s: a windowed preload must apply one batch per epoch", w.name)
	case w.windowCycles > 0 && w.period() < 2*w.windowCycles:
		// A pair then rates at most once per window, and some windows hold
		// no activation at all, so unchanged rows replay from the memo.
		return fmt.Errorf("%s: activation period %d below twice the window", w.name, w.period())
	}
	return nil
}

var workloads = []workload{
	{
		name:  "small-batch-1m",
		why:   "1k-rating epochs on a 1M-node, 10M-rating cumulative ledger: the O(n + nnz) detect and publish floors dominate; decode and scoring stay small",
		nodes: 1_000_000, preloadRatings: 10_000_000, preloadChunk: 2_000_000, batch: 1_000,
		activePairs: 1, queryRate: 20, zipfV: 10_000,
	},
	{
		name:  "bulk-window-100k",
		why:   "100k-rating epochs over a 4-epoch window with 2 ingest shards: JSON decode, sharded ingest and window roll dominate; the only delta-ring workload",
		nodes: 100_000, preloadRatings: 2_000_000, preloadChunk: 100_000, batch: 100_000,
		windowCycles: 4, ingestShards: 2, activePairs: 5, queryRate: 100, zipfV: 1,
	},
	{
		name:  "eigentrust-read-100k",
		why:   "10k-rating epochs rescored by EigenTrust on a 100k-node, 2M-rating ledger under 100 queries/s: rescoring dominates and reads share the CPU",
		nodes: 100_000, preloadRatings: 2_000_000, preloadChunk: 1_000_000, batch: 10_000,
		eigenTrust: true, activePairs: 5, queryRate: 100, zipfV: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
