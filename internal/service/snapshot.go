package service

import (
	"sync/atomic"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/reputation"
)

// A Snapshot is one epoch's immutable view of the detection state: the
// frozen period ledger, the engine scores with detected colluders zeroed,
// the flag set with first-flagged epochs, and the accumulated evidence
// pairs — everything a query needs, pinned consistently at one epoch
// watermark.
//
// Snapshots are published by the store's single writer via atomic pointer
// swap and pinned by readers through a refcount: Store.Acquire returns the
// current snapshot with one reference held, and Release returns it. A
// snapshot whose last reference drops is recycled — its ledger arena, its
// slices — into the writer's next publication, which is what keeps the
// steady-state publish path allocation-bounded no matter how many epochs
// the service lives through. A recycled snapshot stays a full replica:
// the refill re-copies only the ledger rows whose generation moved since
// it was last filled (see reputation.Ledger.CloneInto) and replays only
// the flags raised since, so publishing costs what changed, however many
// epochs the snapshot sat in the pool. All accessor methods are safe for
// concurrent use by any number of pinned readers; none of them mutate.
type Snapshot struct {
	epoch   int64
	ratings int64
	ledger  *reputation.Ledger
	scores  []float64
	flagged []bool
	first   []int64
	pairs   []core.Evidence

	// flagsApplied is how much of the store's flag order flagged and
	// first already reflect.
	flagsApplied int

	// refs is the pin count: the store's own reference (held from publish
	// until the next publish) plus one per outstanding Acquire. It is 0
	// exactly while the snapshot sits in the recycle pool or is being
	// refilled by the writer; tryAcquire refuses to resurrect it from 0,
	// which is the whole synchronization between readers and recycling.
	refs  atomic.Int64
	store *Store
}

// Epoch returns the epoch watermark: how many batches had been applied
// when this snapshot was published. Every service response carries it.
func (sn *Snapshot) Epoch() int64 { return sn.epoch }

// Ratings returns the total ratings ingested through this epoch.
func (sn *Snapshot) Ratings() int64 { return sn.ratings }

// Nodes returns the population size.
func (sn *Snapshot) Nodes() int { return len(sn.scores) }

// Ledger returns the frozen period ledger (the sliding window when the
// store is windowed, the cumulative history otherwise). Read-only: the
// snapshot plane's immutability is by convention, not enforcement.
func (sn *Snapshot) Ledger() *reputation.Ledger { return sn.ledger }

// Scores returns the per-node reputation scores, detected colluders
// zeroed. Read-only view.
func (sn *Snapshot) Scores() []float64 { return sn.scores }

// Score returns one node's reputation score.
func (sn *Snapshot) Score(node int) float64 { return sn.scores[node] }

// IsFlagged reports whether node was detected as a colluder by this epoch.
func (sn *Snapshot) IsFlagged(node int) bool { return sn.flagged[node] }

// Flagged returns the per-node flag markers. Read-only view.
func (sn *Snapshot) Flagged() []bool { return sn.flagged }

// FirstFlagged returns the 1-based epoch at which node was first flagged,
// or 0 if it never was — the service counterpart of the batch result's
// DetectionCycle.
func (sn *Snapshot) FirstFlagged(node int) int64 { return sn.first[node] }

// Pairs returns every distinct evidence pair detected so far, sorted by
// (I, J), each with the statistics observed when it was first detected —
// the same first-evidence-wins aggregation the batch simulator reports.
// Read-only view.
func (sn *Snapshot) Pairs() []core.Evidence { return sn.pairs }

// HasPair reports whether {a, b} is among the detected pairs (in either
// order), by binary search over the sorted pair list.
func (sn *Snapshot) HasPair(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	lo, hi := 0, len(sn.pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := sn.pairs[mid]
		if e.I < a || (e.I == a && e.J < b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sn.pairs) && sn.pairs[lo].I == a && sn.pairs[lo].J == b
}

// tryAcquire takes one reference unless the count already reached 0 (the
// snapshot is recycling); a CAS loop so a racing Release cannot be lost.
func (sn *Snapshot) tryAcquire() bool {
	for {
		r := sn.refs.Load()
		if r == 0 {
			return false
		}
		if sn.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release returns one pinned reference. The caller must not touch the
// snapshot afterwards. When the last reference drops, the snapshot's
// storage is offered to the store's recycle pool for the writer's next
// publication (or left to the garbage collector when the pool is full).
func (sn *Snapshot) Release() {
	if sn.refs.Add(-1) > 0 {
		return
	}
	select {
	case sn.store.free <- sn:
		sn.store.mRecycled.Add(1)
	default:
	}
}
