package reputation

import (
	"fmt"
	"slices"
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// TestCloneMidWindowAgainstDense property-tests the snapshot-freeze
// contract: a clone taken mid-window must keep matching the dense
// reference captured at clone time while the original ledger keeps
// rolling — records, merges of period deltas, subtractions of expiring
// periods, even full Resets. Any storage sharing between the clone's
// arena and the original's would surface here as the clone drifting with
// the original's mutations.
func TestCloneMidWindowAgainstDense(t *testing.T) {
	const n = 48
	r := rng.New(7).Child("clone-window")
	src := NewLedger(n)
	dense := newDenseLedger(n)

	record := func(dst *Ledger, dd *denseLedger, count int) {
		for k := 0; k < count; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			pol := r.Intn(3) - 1
			dst.Record(rater, target, pol)
			if dd != nil {
				dd.record(rater, target, pol)
			}
		}
	}

	type frozen struct {
		clone *Ledger
		ref   *denseLedger
		step  string
	}
	var clones []frozen

	// Roll a synthetic window: each period records a delta into the live
	// ledger, clones are taken at varied mid-window points, and between
	// periods the original merges fresh deltas and subtracts expiring ones
	// — the exact mutation mix the WindowLedger drives.
	var periods []*Ledger
	var densePeriods []*denseLedger
	for period := 0; period < 6; period++ {
		delta := NewLedger(n)
		denseDelta := newDenseLedger(n)
		for k := 0; k < 40; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			pol := r.Intn(3) - 1
			delta.Record(rater, target, pol)
			denseDelta.record(rater, target, pol)
			src.Record(rater, target, pol)
			dense.record(rater, target, pol)
		}
		periods = append(periods, delta)
		densePeriods = append(densePeriods, denseDelta)

		// Mid-window freeze: clone now, remember the dense state now.
		clones = append(clones, frozen{clone: src.Clone(), ref: dense.clone(), step: "after period"})

		// Retire the oldest period once the window is over capacity.
		if len(periods) > 3 {
			if err := src.Subtract(periods[0]); err != nil {
				t.Fatalf("period %d: Subtract: %v", period, err)
			}
			dense.subtract(densePeriods[0])
			periods = periods[1:]
			densePeriods = densePeriods[1:]
		}
	}

	// The original keeps rolling: more records, then a full Reset — the
	// harshest recycling event, returning every span of src's arena to its
	// free lists.
	record(src, dense, 200)
	src.Reset()
	dense.reset()
	record(src, dense, 120)

	// Every frozen clone must still match the dense state at its freeze
	// point, bit for bit, despite everything the original did since.
	for i, f := range clones {
		checkAgainstDense(t, f.step, f.clone, f.ref)
		got := f.clone.DirtyTargets()
		want := f.ref.dirtyTargets()
		if len(got) != len(want) {
			t.Fatalf("clone %d: dirty set diverged: got %d targets, want %d", i, len(got), len(want))
		}
	}
	checkAgainstDense(t, "original after reset+records", src, dense)
}

// TestCloneIntoRecyclesArena pins the steady-state allocation behavior of
// the snapshot freeze path: repeated CloneInto calls into the same
// destination recycle the destination's arena spans instead of growing
// fresh storage, even as the source mutates (including span size-class
// changes) between freezes.
func TestCloneIntoRecyclesArena(t *testing.T) {
	const n = 64
	r := rng.New(11).Child("clone-recycle")
	src := NewLedger(n)
	dst := NewLedger(n)

	mutate := func(count int) {
		for k := 0; k < count; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			src.Record(rater, target, r.Intn(3)-1)
		}
	}

	// Warm both arenas: grow src to its high-water footprint, then freeze
	// it twice so dst's arena reaches the same class population.
	mutate(4000)
	src.CloneInto(dst)
	src.CloneInto(dst)

	// Steady state: shuffling counts around (without growing rows past
	// their existing size classes is not guaranteed, so allow the arena the
	// occasional block) must freeze with (near-)zero allocations.
	allocs := testing.AllocsPerRun(20, func() {
		src.CloneInto(dst)
	})
	if allocs > 1 {
		t.Fatalf("steady-state CloneInto allocated %.1f times per freeze, want <= 1", allocs)
	}

	// And the recycled freeze is still an exact copy.
	dense := newDenseLedger(n)
	for tgt := 0; tgt < n; tgt++ {
		pc := src.PairCountsOf(tgt)
		for k, rater := range pc.Raters {
			for c := int32(0); c < pc.Pos[k]; c++ {
				dense.record(int(rater), tgt, 1)
			}
			for c := int32(0); c < pc.Neg[k]; c++ {
				dense.record(int(rater), tgt, -1)
			}
			for c := int32(0); c < pc.Total[k]-pc.Pos[k]-pc.Neg[k]; c++ {
				dense.record(int(rater), tgt, 0)
			}
		}
	}
	clear(dense.dirty)
	for _, d := range src.DirtyTargets() {
		dense.dirty[d] = true
	}
	checkAgainstDense(t, "recycled freeze", dst, dense)

	// Population mismatch is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatalf("CloneInto across populations did not panic")
		}
	}()
	src.CloneInto(NewLedger(n + 1))
}

// checkSameLedger compares every row, receive and outgoing total, row
// generation and the dirty set (list and flags) of got against want.
func checkSameLedger(t *testing.T, step string, got, want *Ledger) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: Size = %d, want %d", step, got.Size(), want.Size())
	}
	for tgt := 0; tgt < want.Size(); tgt++ {
		g, w := got.PairCountsOf(tgt), want.PairCountsOf(tgt)
		if !slices.Equal(g.Raters, w.Raters) || !slices.Equal(g.Total, w.Total) ||
			!slices.Equal(g.Pos, w.Pos) || !slices.Equal(g.Neg, w.Neg) {
			t.Fatalf("%s: row %d = %+v, want %+v", step, tgt, g, w)
		}
		if got.TotalFor(tgt) != want.TotalFor(tgt) || got.PositiveFor(tgt) != want.PositiveFor(tgt) ||
			got.NegativeFor(tgt) != want.NegativeFor(tgt) {
			t.Fatalf("%s: totals of %d = (%d,%d,%d), want (%d,%d,%d)", step, tgt,
				got.TotalFor(tgt), got.PositiveFor(tgt), got.NegativeFor(tgt),
				want.TotalFor(tgt), want.PositiveFor(tgt), want.NegativeFor(tgt))
		}
		if got.OutgoingTotal(tgt) != want.OutgoingTotal(tgt) {
			t.Fatalf("%s: OutgoingTotal(%d) = %d, want %d", step, tgt, got.OutgoingTotal(tgt), want.OutgoingTotal(tgt))
		}
		if got.RowGen(tgt) != want.RowGen(tgt) {
			t.Fatalf("%s: RowGen(%d) = %d, want %d", step, tgt, got.RowGen(tgt), want.RowGen(tgt))
		}
	}
	if g, w := got.DirtyTargets(), want.DirtyTargets(); !slices.Equal(g, w) {
		t.Fatalf("%s: DirtyTargets = %v, want %v", step, g, w)
	}
	// The per-row flags decide whether the next mutation joins the dirty
	// list, so they must match too, not just the list.
	if !slices.Equal(got.dirty, want.dirty) {
		t.Fatalf("%s: dirty flags = %v, want %v", step, got.dirty, want.dirty)
	}
}

// recordRandom records count seeded ratings into every given ledger and
// the dense reference (which may be nil).
func recordRandom(r *rng.Rand, n, count int, d *denseLedger, ls ...*Ledger) {
	for k := 0; k < count; k++ {
		rater, target := r.Intn(n), r.Intn(n)
		if rater == target {
			target = (target + 1) % n
		}
		pol := r.Intn(3) - 1
		for _, l := range ls {
			l.Record(rater, target, pol)
		}
		if d != nil {
			d.record(rater, target, pol)
		}
	}
}

// TestCloneIntoRefreshMatchesFullClone property-tests the generation-diff
// refresh: a source goes through random interleavings of Record, Merge,
// Subtract, Reset and ClearDirty, and three recycled destinations are
// refilled from it at different lags. After every fill a destination
// must equal a fresh Clone and the dense reference, and the refill must
// have re-copied exactly the rows whose generation moved since the
// destination's previous fill.
func TestCloneIntoRefreshMatchesFullClone(t *testing.T) {
	const (
		n     = 24
		steps = 600
	)
	r := rng.New(23).Child("clone-refresh")
	src := NewLedger(n)
	dense := newDenseLedger(n)
	type merged struct {
		l *Ledger
		d *denseLedger
	}
	var ring []merged // merged deltas, oldest first, still subtractable
	lags := []int{1, 2, 5}
	dsts := make([]*Ledger, len(lags))
	for i := range dsts {
		dsts[i] = NewLedger(n)
	}
	for step := 1; step <= steps; step++ {
		switch op := r.Intn(20); {
		case op < 9:
			recordRandom(r, n, 1+r.Intn(6), dense, src)
		case op < 13:
			delta, dd := NewLedger(n), newDenseLedger(n)
			recordRandom(r, n, 1+r.Intn(12), dd, delta)
			if err := src.Merge(delta); err != nil {
				t.Fatal(err)
			}
			dense.merge(dd)
			ring = append(ring, merged{delta, dd})
		case op < 17:
			if len(ring) == 0 {
				continue
			}
			if err := src.Subtract(ring[0].l); err != nil {
				t.Fatal(err)
			}
			dense.subtract(ring[0].d)
			ring = ring[1:]
		case op < 18:
			src.Reset()
			dense.reset()
			ring = nil
		default:
			src.ClearDirty()
			dense.clearDirty()
		}
		for i, lag := range lags {
			if step%lag != 0 {
				continue
			}
			dst := dsts[i]
			moved := 0
			for tgt := 0; tgt < n; tgt++ {
				if dst.RowGen(tgt) != src.RowGen(tgt) {
					moved++
				}
			}
			copied := src.CloneInto(dst)
			name := fmt.Sprintf("step %d, lag %d", step, lag)
			if step == lag {
				moved = n // a fresh destination counts every row stale
			}
			if copied != moved {
				t.Fatalf("%s: CloneInto re-copied %d rows, want the %d whose generation moved", name, copied, moved)
			}
			checkSameLedger(t, name, dst, src.Clone())
			checkAgainstDense(t, name, dst, dense)
		}
	}
}

// TestCloneIntoRefreshFallbacks pins the cases where equal generations
// do not mean equal rows, so the refresh must copy every row: a
// destination switched to a second source, a destination mutated after
// its fill, and a source overwritten by a CloneInto of its own. Each is
// built so that the stale row's generation matches the fresh one.
func TestCloneIntoRefreshFallbacks(t *testing.T) {
	const n = 16
	r := rng.New(29).Child("clone-fallback")
	a, b := NewLedger(n), NewLedger(n)
	recordRandom(r, n, 200, nil, a, b)
	// Same generations on every row, different counts on row 3.
	a.Record(5, 3, 1)
	b.Record(6, 3, -1)

	t.Run("second source", func(t *testing.T) {
		dst := NewLedger(n)
		a.CloneInto(dst)
		if copied := b.CloneInto(dst); copied != n {
			t.Fatalf("switching sources re-copied %d rows, want all %d", copied, n)
		}
		checkSameLedger(t, "filled from b", dst, b.Clone())
		a.CloneInto(dst)
		checkSameLedger(t, "back to a", dst, a.Clone())
	})

	t.Run("mutated destination", func(t *testing.T) {
		src, dst := a.Clone(), NewLedger(n)
		src.CloneInto(dst)
		dst.Record(7, 4, 1)
		src.Record(8, 4, -1) // row 4 reaches the same generation in both
		if copied := src.CloneInto(dst); copied != n {
			t.Fatalf("refilling a mutated destination re-copied %d rows, want all %d", copied, n)
		}
		checkSameLedger(t, "after mutation", dst, src.Clone())
		if copied := src.CloneInto(dst); copied != 0 {
			t.Fatalf("refilling an unchanged replica re-copied %d rows, want 0", copied)
		}
	})

	t.Run("overwritten source", func(t *testing.T) {
		src, dst := a.Clone(), NewLedger(n)
		src.CloneInto(dst)
		b.CloneInto(src) // src now holds b's rows under the same generations
		if copied := src.CloneInto(dst); copied != n {
			t.Fatalf("refilling from an overwritten source re-copied %d rows, want all %d", copied, n)
		}
		checkSameLedger(t, "after overwrite", dst, b.Clone())
	})
}
