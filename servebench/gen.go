package main

import (
	"math/rand/v2"
	"slices"

	"github.com/p2psim/collusion/internal/ingest"
)

// Planted collusion follows the paper's characteristics C1–C5. Each time
// a pair is active, its members exchange mutualRatings +1 ratings in each
// direction (frequent, almost always positive: C3, C4), and each member
// receives outsideRatings ratings from honest customers (non-sellers),
// all negative but one (the rest of the network distrusts them: C2). Per activation a member's
// summation reputation is 24 − 8·(1 − 2/8) = 18 ≥ T_R (C1, C5), its
// outside positive share is 1/8 < T_b, and Formula (2) holds, so one
// activation inside the scored period is enough for detection under
// core.DefaultThresholds, and any whole number of activations keeps the
// same proportions.
//
// The outside raters are never sellers. Sellers hold EigenTrust's
// pretrust and most of its trust, and a seller's +1 would feed trust
// into the pair's mutual-rating 2-cycle, which the power iteration only
// damps at rate 1 − α: cold-start iterations to ε = 1e-4 then ran from 9
// to 33 depending on whether the seed made a top seller endorse a
// colluder, and epoch time measured the seed. Customers hold no trust,
// so every seed converges in 9–10 iterations.
const (
	mutualRatings  = 24
	outsideRatings = 8
	plantedPerPair = 2 * (mutualRatings + outsideRatings)

	// Honest traffic: targets drawn from a seller subset of one node in
	// sellerShare by the workload's Zipf law, raters uniformly from the
	// non-colluders, honestPositive of the ratings +1 and the rest -1.
	// Uniform raters keep adding new (rater, seller) pairs, so the
	// ledger grows through a run.
	honestPositive = 0.8
	zipfS          = 1.1
	sellerShare    = 10

	// pretrustedCount top-ranked sellers form EigenTrust's fixed
	// pretrusted set.
	pretrustedCount = 10
)

// PCG stream selectors: every batch k draws from stream k, so a batch can
// be regenerated alone; set-up and queries use streams no batch reaches.
const (
	streamSetup uint64 = 1 << 62
	streamQuery uint64 = 1<<62 + 1
)

// generator derives a workload's whole input from one seed: the planted
// pairs, the seller ranking, every rating batch and the query stream. The
// service only ever sees the generated ratings and queries.
type generator struct {
	w    workload
	seed uint64

	// pairs holds the planted pairs (I < J) in activation order: pair p
	// is active in batch k when k ≡ p (mod w.period()), except that a
	// late pair is not active before the timed batches.
	pairs      [][2]int32
	colluder   []bool
	seller     []bool
	sellers    []int32 // Zipf rank order, most popular first
	pretrusted []int
}

func newGenerator(w workload, seed uint64) *generator {
	rng := rand.New(rand.NewPCG(seed, streamSetup))
	g := &generator{w: w, seed: seed, colluder: make([]bool, w.nodes), seller: make([]bool, w.nodes)}
	for len(g.pairs) < w.pairs() {
		a, b := g.pick(rng), g.pick(rng)
		g.pairs = append(g.pairs, [2]int32{min(a, b), max(a, b)})
	}
	for len(g.sellers) < w.nodes/sellerShare {
		x := rng.IntN(w.nodes)
		if !g.colluder[x] && !g.seller[x] {
			g.seller[x] = true
			g.sellers = append(g.sellers, int32(x))
		}
	}
	for _, s := range g.sellers[:pretrustedCount] {
		g.pretrusted = append(g.pretrusted, int(s))
	}
	return g
}

// firstTimed is the timed batch in which pair p is first active after
// the preload.
func (g *generator) firstTimed(p int) int {
	per, pre := g.w.period(), g.w.preloadBatches()
	return ((p-pre)%per + per) % per
}

// late reports whether pair p is held out of the preload: it first
// rates in timed batch firstTimed(p), so the timed run must detect it.
func (g *generator) late(p int) bool { return g.firstTimed(p) < g.w.lateBatches() }

// pick draws a node not yet planted and marks it as a colluder.
func (g *generator) pick(rng *rand.Rand) int32 {
	for {
		x := rng.IntN(g.w.nodes)
		if !g.colluder[x] {
			g.colluder[x] = true
			return int32(x)
		}
	}
}

// flaggedPair is one pair the service must report, with the epoch in
// which both its members are first flagged.
type flaggedPair struct {
	pair  [2]int32
	first int64
}

// expected returns the pairs the service must report once timed
// batches have been applied, sorted by (I, J): every pair active during
// the preload, first flagged by the end of it, and every late pair
// already active, first flagged in the epoch of its first timed batch.
// first is 0 for the preload pairs: the check only bounds it.
func (g *generator) expected(timed int) []flaggedPair {
	var out []flaggedPair
	for p, pr := range g.pairs {
		switch {
		case !g.late(p):
			out = append(out, flaggedPair{pair: pr})
		case g.firstTimed(p) < timed:
			out = append(out, flaggedPair{pair: pr, first: int64(g.w.preloadEpochs() + g.firstTimed(p) + 1)})
		}
	}
	slices.SortFunc(out, func(a, b flaggedPair) int {
		if a.pair[0] != b.pair[0] {
			return int(a.pair[0] - b.pair[0])
		}
		return int(a.pair[1] - b.pair[1])
	})
	return out
}

// appendBatch appends generator batch k (w.batch ratings): the planted
// ratings of the pairs active in k, then honest traffic.
func (g *generator) appendBatch(dst []ingest.Rating, k int) []ingest.Rating {
	rng := rand.New(rand.NewPCG(g.seed, uint64(k)))
	zipf := g.sellerZipf(rng)
	end := len(dst) + g.w.batch
	for p := k % g.w.period(); p < len(g.pairs); p += g.w.period() {
		if k < g.w.preloadBatches() && g.late(p) {
			// Stand-in honest ratings keep the batch size.
			for q := 0; q < plantedPerPair; q++ {
				dst = g.appendHonest(dst, rng, zipf)
			}
			continue
		}
		a, b := g.pairs[p][0], g.pairs[p][1]
		for q := 0; q < mutualRatings; q++ {
			dst = append(dst,
				ingest.Rating{Rater: a, Target: b, Polarity: 1},
				ingest.Rating{Rater: b, Target: a, Polarity: 1})
		}
		for _, t := range [2]int32{a, b} {
			for q := 0; q < outsideRatings; q++ {
				pol := int8(-1)
				if q == 0 {
					pol = 1
				}
				dst = append(dst, ingest.Rating{Rater: g.honestRater(rng, t, true), Target: t, Polarity: pol})
			}
		}
	}
	for len(dst) < end {
		dst = g.appendHonest(dst, rng, zipf)
	}
	return dst
}

// appendHonest appends one honest rating of a seller drawn by
// popularity.
func (g *generator) appendHonest(dst []ingest.Rating, rng *rand.Rand, zipf *rand.Zipf) []ingest.Rating {
	t := g.sellers[zipf.Uint64()]
	pol := int8(1)
	if rng.Float64() >= honestPositive {
		pol = -1
	}
	return append(dst, ingest.Rating{Rater: g.honestRater(rng, t, false), Target: t, Polarity: pol})
}

// sellerZipf draws seller ranks by popularity.
func (g *generator) sellerZipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, g.w.zipfV, uint64(len(g.sellers)-1))
}

// honestRater draws a uniform non-colluder other than target; with
// customersOnly, a non-seller.
func (g *generator) honestRater(rng *rand.Rand, target int32, customersOnly bool) int32 {
	for {
		x := rng.IntN(g.w.nodes)
		if !g.colluder[x] && int32(x) != target && !(customersOnly && g.seller[x]) {
			return int32(x)
		}
	}
}

// preloadChunks returns the set-up history: the first preloadBatches
// generator batches, grouped into Apply calls of preloadChunk ratings.
func (g *generator) preloadChunks() [][]ingest.Rating {
	per := g.w.preloadChunk / g.w.batch
	chunks := make([][]ingest.Rating, g.w.preloadRatings/g.w.preloadChunk)
	for c := range chunks {
		chunk := make([]ingest.Rating, 0, g.w.preloadChunk)
		for b := 0; b < per; b++ {
			chunk = g.appendBatch(chunk, c*per+b)
		}
		chunks[c] = chunk
	}
	return chunks
}

// timedBatch returns the j-th batch after the preload.
func (g *generator) timedBatch(dst []ingest.Rating, j int) []ingest.Rating {
	return g.appendBatch(dst[:0], g.w.preloadBatches()+j)
}

// Query operations, named as the GET routes they drive.
const (
	opReputation = "reputation"
	opSuspicion  = "suspicion"
	opEpoch      = "epoch"
	opFlagged    = "flagged"
)

type query struct {
	op   string
	node int
}

// queryStream yields the seeded query sequence: in every block of 100
// queries exactly 85 reputation, 10 suspicion, 4 epoch and 1 flagged, in
// seeded order, over nodes drawn 10 % from the planted colluders, 60 %
// from the sellers by the same popularity the ratings follow and 30 %
// uniformly.
type queryStream struct {
	g     *generator
	rng   *rand.Rand
	zipf  *rand.Zipf
	block []string
	pos   int
}

func (g *generator) queries() *queryStream {
	rng := rand.New(rand.NewPCG(g.seed, streamQuery))
	block := make([]string, 0, 100)
	for _, m := range []struct {
		op string
		n  int
	}{{opReputation, 85}, {opSuspicion, 10}, {opEpoch, 4}, {opFlagged, 1}} {
		for i := 0; i < m.n; i++ {
			block = append(block, m.op)
		}
	}
	return &queryStream{
		g: g, rng: rng, block: block, pos: len(block),
		zipf: g.sellerZipf(rng),
	}
}

func (s *queryStream) next() query {
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	q := query{op: s.block[s.pos]}
	s.pos++
	switch r := s.rng.IntN(10); {
	case r == 0:
		q.node = int(s.g.pairs[s.rng.IntN(len(s.g.pairs))][s.rng.IntN(2)])
	case r <= 6:
		q.node = int(s.g.sellers[s.zipf.Uint64()])
	default:
		q.node = s.rng.IntN(s.g.w.nodes)
	}
	return q
}
