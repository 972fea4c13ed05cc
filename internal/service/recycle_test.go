package service

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// epochState is the writer's detection state right after one epoch,
// copied out by the test.
type epochState struct {
	epoch   int64
	ledger  *reputation.Ledger
	scores  []float64
	flagged []bool
	first   []int64
	pairs   []core.Evidence
}

// captureState copies the writer-owned state. It must run between Apply
// calls: Apply's reply orders the writer's last epoch before the copy,
// and the next Apply orders the copy before the writer resumes.
func captureState(s *Store) epochState {
	return epochState{
		epoch:   s.epoch,
		ledger:  s.periodLedger().Clone(),
		scores:  slices.Clone(s.scores),
		flagged: slices.Clone(s.flagged),
		first:   slices.Clone(s.first),
		pairs:   slices.Clone(s.pairs),
	}
}

// snapshotMismatch describes the first difference between a pinned
// snapshot and the state it should hold, or returns "" when they match.
func snapshotMismatch(sn *Snapshot, want epochState) string {
	if sn.Epoch() != want.epoch {
		return fmt.Sprintf("epoch %d, want %d", sn.Epoch(), want.epoch)
	}
	l, w := sn.Ledger(), want.ledger
	for tgt := 0; tgt < w.Size(); tgt++ {
		g, e := l.PairCountsOf(tgt), w.PairCountsOf(tgt)
		if !slices.Equal(g.Raters, e.Raters) || !slices.Equal(g.Total, e.Total) ||
			!slices.Equal(g.Pos, e.Pos) || !slices.Equal(g.Neg, e.Neg) {
			return fmt.Sprintf("ledger row %d = %+v, want %+v", tgt, g, e)
		}
		if l.TotalFor(tgt) != w.TotalFor(tgt) || l.PositiveFor(tgt) != w.PositiveFor(tgt) ||
			l.NegativeFor(tgt) != w.NegativeFor(tgt) || l.OutgoingTotal(tgt) != w.OutgoingTotal(tgt) {
			return fmt.Sprintf("ledger totals of %d differ", tgt)
		}
		if l.RowGen(tgt) != w.RowGen(tgt) {
			return fmt.Sprintf("RowGen(%d) = %d, want %d", tgt, l.RowGen(tgt), w.RowGen(tgt))
		}
	}
	if g, e := l.DirtyTargets(), w.DirtyTargets(); !slices.Equal(g, e) {
		return fmt.Sprintf("dirty targets %v, want %v", g, e)
	}
	for i, v := range want.scores {
		if math.Float64bits(sn.Score(i)) != math.Float64bits(v) {
			return fmt.Sprintf("score %d = %v, want %v", i, sn.Score(i), v)
		}
	}
	if !slices.Equal(sn.Flagged(), want.flagged) {
		return fmt.Sprintf("flagged %v, want %v", sn.Flagged(), want.flagged)
	}
	for i, f := range want.first {
		if sn.FirstFlagged(i) != f {
			return fmt.Sprintf("FirstFlagged(%d) = %d, want %d", i, sn.FirstFlagged(i), f)
		}
	}
	if !slices.Equal(sn.Pairs(), want.pairs) {
		return fmt.Sprintf("pairs %v, want %v", sn.Pairs(), want.pairs)
	}
	return ""
}

// TestStaleReplicaRecycling pins that a recycled snapshot, refreshed from
// however many epochs back it was last filled, holds exactly the writer's
// state at its epoch. Readers pin snapshots across hold epochs before
// releasing them, so with a small pool the writer refills replicas of
// varying age. The test loop checks the snapshot it acquires after every
// epoch, and every pinned snapshot again just before its release; two
// concurrent readers do the same under -race.
func TestStaleReplicaRecycling(t *testing.T) {
	const (
		nodes  = 20
		epochs = 40
	)
	for _, window := range []int{0, 8} {
		for _, pool := range []int{1, 3} {
			for _, hold := range []int64{0, 1, 5} {
				name := fmt.Sprintf("window=%d/pool=%d/hold=%d", window, pool, hold)
				t.Run(name, func(t *testing.T) {
					s := testStore(t, nodes, Config{SnapshotPool: pool, WindowCycles: window})
					var (
						mu      sync.Mutex
						states  = map[int64]epochState{0: captureState(s)}
						applied atomic.Int64 // epochs whose state is in states
						stop    atomic.Bool
						wg      sync.WaitGroup
					)
					stateAt := func(e int64) epochState {
						mu.Lock()
						defer mu.Unlock()
						return states[e]
					}
					for g := 0; g < 2; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for !stop.Load() {
								sn := s.Acquire()
								for applied.Load() < sn.Epoch()+hold && !stop.Load() {
									runtime.Gosched() // hold the pin while the writer moves on
								}
								if applied.Load() >= sn.Epoch() {
									if msg := snapshotMismatch(sn, stateAt(sn.Epoch())); msg != "" {
										t.Errorf("reader, epoch %d: %s", sn.Epoch(), msg)
									}
								}
								sn.Release()
							}
						}()
					}
					defer func() { // also on Fatal, before the subtest ends
						stop.Store(true)
						wg.Wait()
					}()

					type pin struct {
						sn    *Snapshot
						until int64
					}
					var pins []pin
					r := rng.New(31).Child("stale-replica")
					var batch []ingest.Rating
					for e := int64(1); e <= epochs; e++ {
						batch = randomBatch(r, nodes, 15, batch)
						if _, err := s.Apply(batch); err != nil {
							t.Fatal(err)
						}
						st := captureState(s)
						mu.Lock()
						states[e] = st
						mu.Unlock()
						applied.Store(e)

						pins = append(pins, pin{s.Acquire(), e + hold})
						if msg := snapshotMismatch(pins[len(pins)-1].sn, st); msg != "" {
							t.Fatalf("epoch %d, acquired: %s", e, msg)
						}
						kept := pins[:0]
						for _, p := range pins {
							if p.until > e {
								kept = append(kept, p)
								continue
							}
							if msg := snapshotMismatch(p.sn, stateAt(p.sn.Epoch())); msg != "" {
								t.Fatalf("epoch %d, releasing the epoch-%d pin: %s", e, p.sn.Epoch(), msg)
							}
							p.sn.Release()
						}
						pins = kept
					}
					for _, p := range pins {
						p.sn.Release()
					}
					if st := stateAt(epochs); len(st.pairs) == 0 {
						t.Fatal("no pair detected; the workload never exercises the flag replay")
					}
				})
			}
		}
	}
}
