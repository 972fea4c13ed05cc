// Package service is the resident collusion-detection server: a
// long-running Store that ingests rating batches through the existing
// sharded ingest machinery, runs incremental detection on every epoch's
// dirty set, and publishes the result as an epoch-stamped copy-on-write
// Snapshot that concurrent readers pin without ever blocking — or being
// blocked by — the ingest path.
//
// One applied batch is one epoch. When the traffic source is the seeded
// simulator (simulator.NewBatchTap delivers each simulation cycle's
// ratings as one batch), epoch E of a served run is byte-identical to
// cycle E of the batch run from the same configuration: the same ledgers,
// the same engine scores, the same flag set, evidence pairs and registry
// metrics. The equivalence tests in this package pin that contract for
// every tested worker and ingest-shard count.
//
// Concurrency model: a single writer goroutine owns every piece of
// mutable detection state (ledgers, window, detector memo, flag set) and
// applies commands — rating batches, maintenance — strictly in arrival
// order, so the service stays deterministic for a deterministic request
// stream (the JSONL replay mode feeds exactly that). Readers interact
// only with the published *Snapshot through an atomic pointer and
// per-snapshot refcounts; see Snapshot. Package service is part of the
// lint-enforced deterministic tree — no wall clock, no ambient randomness
// — while the HTTP listener lives in the wall-clock-exempt
// service/httpapi subpackage.
package service

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// ErrClosed is returned by commands submitted after Close.
var ErrClosed = errors.New("service: store is closed")

// Config parameterizes a Store. Engine, detector and thresholds are
// injected pre-built (simulator.BuildEngine / simulator.BuildPairDetector
// construct them exactly as a batch run would) so the service package
// stays independent of the simulator.
type Config struct {
	// Nodes is the fixed population size. Required.
	Nodes int
	// Engine scores the period ledger each epoch. Required.
	Engine reputation.Engine
	// Detector, if non-nil, is the pairwise collusion detector run each
	// epoch. Incremental detectors take the O(dirty) path exactly as the
	// simulation loop drives them.
	Detector core.Detector
	// Thresholds parameterize the suspicion endpoint's advisory explain
	// path (core.ExplainPair); zero value selects core.DefaultThresholds.
	// They should match the detector's.
	Thresholds core.Thresholds
	// IngestShards >= 1 routes each batch through the sharded ingest.Ingester
	// with that many writer goroutines; 0 records directly, exactly
	// mirroring the simulator's two intake paths (and their telemetry).
	IngestShards int
	// WindowCycles > 0 evaluates scores and detection over a sliding
	// window of the last WindowCycles epochs instead of the cumulative
	// history, through the same delta-ring WindowLedger as batch runs.
	WindowCycles int
	// FullDetect forces from-scratch detection every epoch (A/B escape
	// hatch; outputs are identical either way).
	FullDetect bool
	// Obs, if non-nil, receives the same histograms and counters a batch
	// run records, plus the service.* ingest-plane telemetry.
	Obs *obs.Registry
	// Tracer, if enabled, receives the detector's audit events and the
	// ingest pipeline's shard audits, stamped with the epoch as the cycle.
	Tracer *obs.Tracer
	// Spans, if enabled, receives the detector's span brackets.
	Spans *obs.SpanTracer
	// CycleTimer, if non-nil, brackets every epoch's detection pass (the
	// wall-clock implementations live in internal/obs/prof).
	CycleTimer obs.TimerFunc
	// SnapshotPool bounds how many unpinned snapshots are kept for
	// recycling; 0 selects a small default. More snapshots than this may
	// be live at once under reader pressure — the excess is simply left
	// to the garbage collector instead of reused.
	SnapshotPool int
}

// Store is the resident detection service core. See the package comment
// for the concurrency model. Create with New, feed with Apply, query by
// Acquire-ing snapshots, stop with Close.
type Store struct {
	cfg Config
	n   int
	th  core.Thresholds

	// Writer-owned state: touched only by the run loop (and by New before
	// the loop starts).
	ledger   *reputation.Ledger
	win      *ingest.WindowLedger
	winDirty []int
	ingester *ingest.Ingester
	engine   reputation.Engine
	det      core.Detector
	epoch    int64
	ratings  int64
	scores   []float64
	flagged  []bool
	first    []int64
	// flagOrder lists flagged nodes in the order they were first flagged.
	// Flags are never cleared, so it is append-only, and a recycled
	// snapshot catches up on flags by replaying it from the position its
	// last fill stopped at.
	flagOrder []int32
	pairSet   map[[2]int]struct{}
	pairs     []core.Evidence

	// Snapshot plane: the current publication and the recycle pool.
	cur  atomic.Pointer[Snapshot]
	free chan *Snapshot

	cmds chan command
	quit chan struct{}
	done chan struct{}

	mBatches, mRatings, mRecycled *obs.Counter
	mRowsCopied, mFlagsApplied    *obs.Counter
	gEpoch                        *obs.Gauge
}

type command struct {
	op    int
	batch []ingest.Rating
	reply chan reply
}

type reply struct {
	epoch int64
	err   error
}

const (
	opApply = iota
	opPairFrequencies
)

// New validates cfg, publishes the empty epoch-0 snapshot and starts the
// writer loop.
func New(cfg Config) (*Store, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("service: Nodes = %d, want > 0", cfg.Nodes)
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("service: Engine is required")
	}
	if cfg.IngestShards < 0 {
		return nil, fmt.Errorf("service: IngestShards = %d, want >= 0", cfg.IngestShards)
	}
	if cfg.WindowCycles < 0 {
		return nil, fmt.Errorf("service: WindowCycles = %d, want >= 0", cfg.WindowCycles)
	}
	pool := cfg.SnapshotPool
	if pool <= 0 {
		pool = 4
	}
	th := cfg.Thresholds
	if th == (core.Thresholds{}) {
		th = core.DefaultThresholds()
	}
	s := &Store{
		cfg:       cfg,
		n:         cfg.Nodes,
		th:        th,
		ledger:    reputation.NewLedger(cfg.Nodes),
		engine:    cfg.Engine,
		det:       cfg.Detector,
		scores:    make([]float64, cfg.Nodes),
		flagged:   make([]bool, cfg.Nodes),
		first:     make([]int64, cfg.Nodes),
		pairSet:   make(map[[2]int]struct{}),
		free:      make(chan *Snapshot, pool),
		cmds:      make(chan command),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		mBatches:  cfg.Obs.Counter("service.batches_total"),
		mRatings:  cfg.Obs.Counter("service.ratings_total"),
		mRecycled: cfg.Obs.Counter("service.snapshots_recycled"),
		gEpoch:    cfg.Obs.Gauge("service.epoch"),

		mRowsCopied:   cfg.Obs.Counter("service.publish_rows_copied"),
		mFlagsApplied: cfg.Obs.Counter("service.publish_flags_applied"),
	}
	if cfg.WindowCycles > 0 {
		s.win = ingest.NewWindowLedger(cfg.Nodes, cfg.WindowCycles)
		s.win.Obs = cfg.Obs
		s.win.Spans = cfg.Spans
	}
	if cfg.IngestShards >= 1 {
		s.ingester = &ingest.Ingester{
			Shards: cfg.IngestShards,
			Obs:    cfg.Obs,
			Tracer: cfg.Tracer,
			Spans:  cfg.Spans,
		}
	}
	s.publish() // epoch 0: empty ledger, zero scores, nothing flagged
	go s.run()
	return s, nil
}

// Thresholds returns the suspicion-explain thresholds the store serves
// with (defaults already applied).
func (s *Store) Thresholds() core.Thresholds { return s.th }

// Nodes returns the population size.
func (s *Store) Nodes() int { return s.n }

// run is the single-writer ingest loop: commands apply strictly in
// arrival order, one at a time, and each Apply publishes exactly one new
// snapshot before its reply is sent.
func (s *Store) run() {
	for {
		select {
		case c := <-s.cmds:
			switch c.op {
			case opApply:
				c.reply <- s.applyBatch(c.batch)
			case opPairFrequencies:
				s.observePairFrequencies()
				c.reply <- reply{epoch: s.epoch}
			}
		case <-s.quit:
			close(s.done)
			return
		}
	}
}

// submit routes one command through the writer loop, failing fast after
// Close. The commands channel is unbuffered, so a completed send means
// the loop owns the command and will reply.
func (s *Store) submit(c command) (int64, error) {
	select {
	case s.cmds <- c:
		r := <-c.reply
		return r.epoch, r.err
	case <-s.quit:
		return 0, ErrClosed
	}
}

// Apply ingests one rating batch as the next epoch: the batch is folded
// into the ledgers (sharded when configured), the window rolls, the
// engine rescores, the detector runs over the epoch's dirty set, and the
// resulting state is published as a new snapshot — all before Apply
// returns the new epoch watermark. The batch is validated up front;
// invalid batches reject whole with no state change. Apply is safe for
// concurrent use (batches serialize in arrival order), but the batch
// slice must not be mutated until Apply returns.
func (s *Store) Apply(batch []ingest.Rating) (int64, error) {
	if err := ValidateBatch(batch, s.n); err != nil {
		return 0, err
	}
	return s.submit(command{op: opApply, batch: batch, reply: make(chan reply, 1)})
}

// ObservePairFrequencies records every nonzero rating-pair count of the
// cumulative ledger into the registry's ratings.pair_frequency histogram
// — the post-run observation a batch simulation performs once at the end,
// exposed as a command so a served run's final metrics match the batch
// artifact. It returns the epoch at which the observation ran.
func (s *Store) ObservePairFrequencies() (int64, error) {
	return s.submit(command{op: opPairFrequencies, reply: make(chan reply, 1)})
}

// Close stops the writer loop and waits for it to exit. In-flight
// commands finish first; later commands fail with ErrClosed. The current
// snapshot stays acquirable — queries keep working against the final
// epoch — but no new epochs can be applied.
func (s *Store) Close() {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
}

// ValidateBatch checks every rating against the population contract the
// ledger enforces by panic: indices in [0, n), no self-ratings, polarity
// in {-1, 0, +1}. Service inputs are data, not programming errors, so the
// service rejects instead of crashing.
func ValidateBatch(batch []ingest.Rating, n int) error {
	for k, r := range batch {
		if int(r.Rater) < 0 || int(r.Rater) >= n || int(r.Target) < 0 || int(r.Target) >= n {
			return fmt.Errorf("service: rating %d: pair (%d, %d) out of range [0,%d)", k, r.Rater, r.Target, n)
		}
		if r.Rater == r.Target {
			return fmt.Errorf("service: rating %d: node %d rated itself", k, r.Rater)
		}
		if r.Polarity < -1 || r.Polarity > 1 {
			return fmt.Errorf("service: rating %d: polarity %d, want -1, 0 or 1", k, r.Polarity)
		}
	}
	return nil
}

// applyBatch is the writer-side epoch transition. Its structure mirrors
// the simulation loop's cycle boundary exactly — flushRatings, Roll,
// rescore, detect — which is what the served-equals-batch equivalence
// tests pin.
func (s *Store) applyBatch(batch []ingest.Rating) reply {
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.SetCycle(int(s.epoch) + 1)
	}
	if s.cfg.Spans.Enabled() {
		s.cfg.Spans.SetCycle(int(s.epoch) + 1)
	}
	if s.ingester != nil {
		if len(batch) > 0 {
			dsts := []*reputation.Ledger{s.ledger}
			if s.win != nil {
				dsts = append(dsts, s.win.Current())
			}
			if err := s.ingester.Ingest(batch, dsts...); err != nil {
				return reply{epoch: s.epoch, err: err}
			}
		}
	} else {
		for _, r := range batch {
			s.ledger.Record(int(r.Rater), int(r.Target), int(r.Polarity))
			if s.win != nil {
				s.win.Record(int(r.Rater), int(r.Target), int(r.Polarity))
			}
		}
	}
	if s.win != nil {
		s.winDirty = s.win.Roll()
	}
	s.epoch++
	s.ratings += int64(len(batch))
	s.updateScores()
	s.detect()
	s.publish()
	s.mBatches.Add(1)
	s.mRatings.Add(int64(len(batch)))
	s.gEpoch.Set(float64(s.epoch))
	return reply{epoch: s.epoch}
}

// periodLedger returns the ledger scoring and detection operate on: the
// sliding window when configured, otherwise the cumulative history.
func (s *Store) periodLedger() *reputation.Ledger {
	if s.win != nil {
		return s.win.Window()
	}
	return s.ledger
}

// updateScores recomputes global scores with the engine and keeps
// detected colluders at zero, as the simulation loop does each cycle.
func (s *Store) updateScores() {
	s.scores = s.engine.Scores(s.periodLedger())
	for i, f := range s.flagged {
		if f {
			s.scores[i] = 0
		}
	}
}

// detect runs the detection pass, bracketed by the configured timer.
func (s *Store) detect() {
	if s.det == nil {
		return
	}
	if s.cfg.CycleTimer != nil {
		stop := s.cfg.CycleTimer()
		s.runDetection()
		stop()
		return
	}
	s.runDetection()
}

// runDetection mirrors the simulation loop's pairwise detection tail:
// incremental over the epoch's dirty set, first evidence per pair wins,
// flagged nodes zero and stay zero.
func (s *Store) runDetection() {
	res := s.detectPairs(s.periodLedger())
	for _, e := range res.Pairs {
		key := [2]int{e.I, e.J}
		if _, ok := s.pairSet[key]; !ok {
			s.pairSet[key] = struct{}{}
			s.insertPair(e)
		}
		s.flag(e.I)
		s.flag(e.J)
	}
}

// detectPairs matches the simulator's dirty-set plumbing: windowed stores
// use the window Roll's dirty set, cumulative stores the ledger's own.
func (s *Store) detectPairs(period *reputation.Ledger) core.Result {
	inc, ok := s.det.(core.IncrementalDetector)
	if !ok || s.cfg.FullDetect {
		return s.det.Detect(period)
	}
	if s.win != nil {
		return inc.DetectIncremental(period, s.winDirty)
	}
	dirty := period.DirtyTargets()
	res := inc.DetectIncremental(period, dirty)
	period.ClearDirty()
	return res
}

// insertPair keeps s.pairs sorted by (I, J) under insertion — pair counts
// are small, and the sorted order is what the flagged document exports.
func (s *Store) insertPair(e core.Evidence) {
	at := len(s.pairs)
	for at > 0 && (e.I < s.pairs[at-1].I || (e.I == s.pairs[at-1].I && e.J < s.pairs[at-1].J)) {
		at--
	}
	s.pairs = append(s.pairs, core.Evidence{})
	copy(s.pairs[at+1:], s.pairs[at:])
	s.pairs[at] = e
}

// flag marks a node as detected at the current epoch and zeroes its
// score.
func (s *Store) flag(node int) {
	if !s.flagged[node] {
		s.flagged[node] = true
		s.first[node] = s.epoch
		s.flagOrder = append(s.flagOrder, int32(node))
	}
	s.scores[node] = 0
}

// observePairFrequencies is the batch run's post-run pair-frequency
// observation, over the cumulative ledger.
func (s *Store) observePairFrequencies() {
	h := s.cfg.Obs.Histogram("ratings.pair_frequency")
	if h == nil {
		return
	}
	for i := 0; i < s.n; i++ {
		pc := s.ledger.PairCountsOf(i)
		for k := range pc.Raters {
			h.Observe(int64(pc.Total[k]))
		}
	}
}

// publish freezes the writer state into a snapshot (recycled when one is
// available) and swaps it in as the current publication. A recycled
// snapshot is brought up to date rather than rebuilt: CloneInto re-copies
// only the ledger rows that changed since its last fill, and the flags
// catch up by replaying the flag order from where that fill stopped;
// scores and pairs are copied whole. The recycled snapshot's refcount is
// 0 throughout the refill — no reader can pin it — and is set to 1 (the
// store's own reference) before the swap; the displaced snapshot's store
// reference is released, so it recycles as soon as its last reader lets
// go.
func (s *Store) publish() {
	sn := s.takeFree()
	sn.epoch = s.epoch
	sn.ratings = s.ratings
	if sn.ledger == nil {
		sn.ledger = reputation.NewLedger(s.n)
		sn.flagged = make([]bool, s.n)
		sn.first = make([]int64, s.n)
	}
	s.mRowsCopied.Add(int64(s.periodLedger().CloneInto(sn.ledger)))
	for _, node := range s.flagOrder[sn.flagsApplied:] {
		sn.flagged[node] = true
		sn.first[node] = s.first[node]
	}
	s.mFlagsApplied.Add(int64(len(s.flagOrder) - sn.flagsApplied))
	sn.flagsApplied = len(s.flagOrder)
	sn.scores = append(sn.scores[:0], s.scores...)
	sn.pairs = append(sn.pairs[:0], s.pairs...)
	sn.refs.Store(1)
	if old := s.cur.Swap(sn); old != nil {
		old.Release()
	}
}

// takeFree pops a recycled snapshot or allocates a fresh one.
func (s *Store) takeFree() *Snapshot {
	select {
	case sn := <-s.free:
		return sn
	default:
		return &Snapshot{store: s}
	}
}

// Acquire pins and returns the current snapshot; the caller must Release
// it. Acquire never blocks on the ingest path — it is a pointer load plus
// a refcount CAS, retried only across a concurrent publish or recycle.
// The double-check against the current pointer makes the returned
// snapshot the newest one published at some instant during the call.
func (s *Store) Acquire() *Snapshot {
	for {
		sn := s.cur.Load()
		if !sn.tryAcquire() {
			continue
		}
		if s.cur.Load() == sn {
			return sn
		}
		sn.Release()
	}
}
