package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/index"
	"adaptiverank/internal/metrics"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
	"adaptiverank/internal/vector"
)

// SearchIfaceOptions configures the search-interface access scenario: the
// pending pool starts from keyword-query retrieval instead of the full
// collection, and each model update issues the top model features as new
// queries to grow the pool (Section 4, Document Access).
type SearchIfaceOptions struct {
	// Index is the search interface over the full collection.
	Index *index.Index
	// InitialQueries seed the document pool.
	InitialQueries []string
	// RetrieveK is the per-query result depth (default 300).
	RetrieveK int
	// TopFeatures is how many top model features become queries after
	// each update (default 100 per the paper).
	TopFeatures int
	// PerFeatureK is the result depth per feature query (default 50).
	PerFeatureK int
}

func (o *SearchIfaceOptions) defaults() {
	if o.RetrieveK == 0 {
		o.RetrieveK = 300
	}
	if o.TopFeatures == 0 {
		o.TopFeatures = 100
	}
	if o.PerFeatureK == 0 {
		o.PerFeatureK = 50
	}
}

// Options configures one pipeline execution.
type Options struct {
	// Rel is the extraction task.
	Rel relation.Relation
	// ExtractionCost overrides the simulated per-document extraction
	// cost (default: Rel.ExtractionCost()).
	ExtractionCost time.Duration
	// Coll is the document collection (the ranking pool in the
	// full-access scenario).
	Coll *corpus.Collection
	// Labels is the labelling oracle for Coll: precomputed Labels for
	// experiments (see LabelsFor), or a live extractor-backed oracle.
	Labels Oracle
	// Sample is the initial document sample (SRS or CQS); it is labelled
	// and used to train the initial model, and counts as processed.
	Sample []*corpus.Document
	// Strategy is the prioritization approach.
	Strategy Strategy
	// Detector, when non-nil, makes the run adaptive: buffered documents
	// are folded into the model whenever the detector fires.
	Detector update.Detector
	// Featurizer is the shared document featurizer (required when
	// Detector needs document features or Strategy is Learned).
	Featurizer *ranking.Featurizer
	// SearchIface switches to the search-interface access scenario.
	SearchIface *SearchIfaceOptions
	// MaxDocs stops the run after this many processed documents
	// (0 = process everything).
	MaxDocs int
	// Workers sets the number of goroutines used to score pending
	// documents during (re-)ranking (0 or 1 = sequential). Scores do not
	// depend on evaluation order, so the resulting ranking is identical
	// to the sequential one; each pending document is scored by exactly
	// one worker, which keeps the per-document caches race-free.
	Workers int
	// Metrics, when non-nil, receives the run's counters, gauges, and
	// latency histograms (see internal/obs). A nil registry costs the hot
	// path nothing beyond writes to shared no-op instruments.
	Metrics *obs.Registry
	// Recorder, when non-nil and enabled, receives the run's structured
	// event trace. The default is the no-op recorder, which keeps the
	// per-document path allocation-free.
	Recorder obs.Recorder
	// Explain, when non-nil, arms the model-introspection substrate: the
	// pipeline snapshots the model weight vector at train-init and every
	// train-update (weight-drift timeline) and attributes the scores of
	// the top-ranked documents after each (re-)ranking. Tee
	// Explain.Recorder() into Recorder to also persist detector decision
	// evidence. A nil Explain takes none of these paths, so a disabled
	// run is byte-identical to an uninstrumented one.
	Explain *explain.Explainer
	// Journal, when non-nil, makes the run crash-safe: every labelling
	// outcome is appended (and flushed) before the document affects the
	// model, and on resume journaled outcomes short-circuit extraction.
	// Because the rest of the pipeline is deterministic given the same
	// oracle answers, a resumed run reproduces the interrupted one
	// exactly; model snapshots recorded at each update verify that.
	Journal *Journal
	// RequeueLimit caps how many times one document is requeued after a
	// breaker-open fast-fail before it is skipped instead (default 3).
	RequeueLimit int
}

// ChurnRecord reports the feature turnover of one model update.
type ChurnRecord struct {
	// Position is the number of processed documents at the update.
	Position int
	// Added and Removed count features entering/leaving the model's
	// non-zero support.
	Added, Removed int
	// Size is the model support size after the update.
	Size int
}

// Result is the outcome of one pipeline execution.
type Result struct {
	// Strategy names the approach.
	Strategy string
	// Order is the ranked-phase processing order. The initial sample is
	// processed (and costed) before the ranked phase but excluded from
	// Order and the quality metrics: at laptop scale the sample is a
	// much larger *fraction* of the collection than in the paper, and
	// including it would let the (strategy-independent) sample prefix
	// dominate AP/AUC. Metrics therefore measure how well each strategy
	// ranks the documents it actually gets to choose among.
	Order []corpus.DocID
	// OrderLabels are the usefulness labels along Order.
	OrderLabels []bool
	// SampleSize and SampleUseful describe the processed initial sample.
	SampleSize, SampleUseful int
	// Curve is the recall-vs-%processed curve (101 points).
	Curve []float64
	// AP and AUC are the ranking-quality metrics of Section 4.
	AP, AUC float64
	// Time is the CPU-time account (simulated extraction + measured
	// overheads).
	Time metrics.TimeAccount
	// UpdatePositions lists the processed-document counts at which model
	// updates happened.
	UpdatePositions []int
	// Churn records per-update feature turnover (learned strategies).
	Churn []ChurnRecord
	// PoolSize is the final pending-pool size (differs from len(Order)
	// in the search-interface scenario or with MaxDocs).
	PoolSize int
	// ScoredDocs counts individual document-scoring operations across all
	// (re-)rankings of the run: each rank pass scores the whole pending
	// pool once. It is deterministic for a given configuration and is the
	// denominator of the benchmark suite's ns/score metric.
	ScoredDocs int
	// Tuples are the distinct tuples discovered, in discovery order
	// (sample first, then the ranked phase).
	Tuples []relation.Tuple
	// Skipped lists documents abandoned by the resilience policy:
	// poisoned (every attempt failed) or over the requeue limit. They are
	// excluded from Order and the quality metrics.
	Skipped []corpus.DocID
	// Requeued counts breaker-open fast-fails that sent a document back
	// to the end of the pending pool.
	Requeued int
	// Interrupted reports that the run stopped early because its context
	// was cancelled (signal or timeout). The partial result — including
	// any journal written so far — is valid and resumable.
	Interrupted bool
	// DetectorObservations counts detector invocations, and
	// DetectorTime their total measured cost (Table 3).
	DetectorObservations int
	DetectorTime         time.Duration
}

// RecallAt evaluates the run's recall after processing pct% of the pool.
func (r *Result) RecallAt(pct float64) float64 { return metrics.RecallAt(r.Curve, pct) }

// primer interfaces let detectors consume the initial sample.
type labeledPrimer interface {
	Prime(xs []vector.Sparse, useful []bool)
}

type unlabeledPrimer interface {
	Prime(xs []vector.Sparse)
}

// Run executes the Figure 2 loop and returns the instrumented result.
func Run(opts Options) (*Result, error) {
	//lint:allow ctxflow compat shim: Run is the documented non-cancellable entry point
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the loop
// drains gracefully — the in-flight document finishes (or aborts), the
// journal and trace stay flushed, and the partial result is returned
// with Interrupted set rather than an error, so callers can checkpoint
// what was done. The run carries the pprof label phase=extract, which
// each named phase overrides (see run.phase).
func RunContext(ctx context.Context, opts Options) (res *Result, err error) {
	if opts.Coll == nil || opts.Labels == nil || opts.Strategy == nil {
		return nil, fmt.Errorf("pipeline: Coll, Labels, and Strategy are required")
	}
	if ctx == nil {
		//lint:allow ctxflow nil-ctx guard: callers passing nil get the non-cancellable default
		ctx = context.Background()
	}
	if opts.SearchIface != nil {
		opts.SearchIface.defaults()
	}
	if opts.RequeueLimit <= 0 {
		opts.RequeueLimit = 3
	}
	if opts.ExtractionCost == 0 {
		opts.ExtractionCost = opts.Rel.ExtractionCost()
	}
	pprof.Do(ctx, pprof.Labels(obs.LabelPhase, obs.ProfPhaseExtract), func(ctx context.Context) {
		r := newRun(ctx, opts)
		if r.sample() {
			r.trainInit()
			r.primeDetector()
			r.buildPool()
			r.rank()
			r.process()
		}
		res, err = r.finish()
	})
	return res, err
}

// run is the state of one RunContext execution: one method per Figure 2
// phase.
type run struct {
	ctx  context.Context // carries the phase=extract pprof label
	opts Options
	res  *Result

	rec      obs.Recorder
	tr       *obs.Tracer
	ex       *explain.Explainer // nil unless the run is explained
	featName func(int32) string
	spRun    *obs.Span

	sampled     []LabeledDoc // the labelled sample, duplicates included
	processed   map[corpus.DocID]bool
	seenTuples  map[relation.Tuple]bool
	pending     []*corpus.Document
	cursor      int
	scores      map[corpus.DocID]float64
	buffer      []LabeledDoc
	requeues    map[corpus.DocID]int
	prevSupport map[int32]bool
	// Per-document observe/detect times, flushed as aggregate phase
	// events at the end of the run to keep the trace compact.
	accObserve, accDetect time.Duration
	err                   error // the resume divergence that ended the run

	cSample, cDocs, cUseful, cReranks, cUpdates, cFired, cSuppressed *obs.Counter
	cSkipped, cRequeued, cWorkerPanics                               *obs.Counter
	hRank, hUpdate, hDetect                                          *obs.Histogram
}

// newRun wires the run's observability and opens its run span. A nil
// registry, the no-op recorder, the nil tracer and a nil explainer all
// cost nothing, so an uninstrumented run takes exactly the bare path
// (the byte-identity tests at the root pin this down). The tracer is
// shared with the strategy and detector so their spans nest under the
// pipeline's current scope.
func newRun(ctx context.Context, opts Options) *run {
	reg := opts.Metrics
	rec := opts.Recorder
	if rec == nil {
		rec = obs.Nop()
	}
	if reg != nil || rec.Enabled() {
		if in, ok := opts.Strategy.(obs.Instrumentable); ok {
			in.Instrument(reg, rec)
		}
		if in, ok := opts.Detector.(obs.Instrumentable); ok {
			in.Instrument(reg, rec)
		}
		if in, ok := opts.Labels.(obs.Instrumentable); ok {
			in.Instrument(reg, rec) // e.g. a Resilient live-extraction oracle
		}
	}
	tr := obs.NewTracer(rec)
	if tr.Enabled() {
		if in, ok := opts.Strategy.(obs.TraceInstrumentable); ok {
			in.InstrumentTracer(tr)
		}
		if in, ok := opts.Detector.(obs.TraceInstrumentable); ok {
			in.InstrumentTracer(tr)
		}
	}
	r := &run{
		ctx: ctx, opts: opts, res: &Result{Strategy: opts.Strategy.Name()},
		rec: rec, tr: tr, ex: opts.Explain,
		processed:     make(map[corpus.DocID]bool, opts.Coll.Len()),
		seenTuples:    make(map[relation.Tuple]bool),
		requeues:      make(map[corpus.DocID]int),
		cSample:       reg.Counter(obs.MetricPipelineSampleDocs),
		cDocs:         reg.Counter(obs.MetricPipelineDocsProcessed),
		cUseful:       reg.Counter(obs.MetricPipelineDocsUseful),
		cReranks:      reg.Counter(obs.MetricPipelineReranks),
		cUpdates:      reg.Counter(obs.MetricPipelineUpdates),
		cFired:        reg.Counter(obs.MetricPipelineDetectorFired),
		cSuppressed:   reg.Counter(obs.MetricPipelineDetectorSuppressed),
		cSkipped:      reg.Counter(obs.MetricPipelineDocsSkipped),
		cRequeued:     reg.Counter(obs.MetricPipelineDocsRequeued),
		cWorkerPanics: reg.Counter(obs.MetricPipelineWorkerPanics),
		hRank:         reg.Histogram(obs.MetricPipelineRankSeconds, nil),
		hUpdate:       reg.Histogram(obs.MetricPipelineUpdateSeconds, nil),
		hDetect:       reg.Histogram(obs.MetricPipelineDetectSeconds, nil),
	}
	if opts.Featurizer != nil {
		r.featName = opts.Featurizer.FeatureName
	}
	// The run-started event carries the collection size and — when the
	// oracle knows it — the total useful count (Val), so post-hoc trace
	// analysis can reconstruct recall without the collection.
	startEv := obs.Event{Kind: obs.KindRunStarted, Name: opts.Strategy.Name(), N: opts.Coll.Len()}
	if total, known := opts.Labels.TotalUseful(); known {
		startEv.Val = float64(total)
	}
	rec.Record(startEv)
	r.spRun = tr.Start(obs.SpanRun).SetAttr("strategy", opts.Strategy.Name()).
		SetNum("collection", float64(opts.Coll.Len()))
	return r
}

// phase runs fn as the named Figure 2 phase. It is the one place that
// opens a phase span and sets the pprof label phase=<name> (goroutines
// fn starts inherit it). It returns the span, ended, and fn's duration,
// which the caller charges to Result.Time, its histogram and its phase
// event.
func (r *run) phase(name string, fn func(sp *obs.Span)) (*obs.Span, time.Duration) {
	sp := r.tr.Start(name)
	var d time.Duration
	pprof.Do(r.ctx, pprof.Labels(obs.LabelPhase, name), func(context.Context) {
		t0 := time.Now()
		fn(sp)
		d = time.Since(t0)
	})
	sp.End()
	return sp, d
}

// sample labels the initial document sample. Duplicates (sampling with
// replacement) train with their multiplicity but are counted and costed
// once. It reports false when the run was cancelled mid-sample.
func (r *run) sample() bool {
	res := r.res
	r.phase(obs.SpanSample, func(sp *obs.Span) {
		r.sampled = make([]LabeledDoc, 0, len(r.opts.Sample))
		for _, d := range r.opts.Sample {
			ld, outcome, reason := r.label(d)
			switch outcome {
			case outcomeCancelled:
				res.Interrupted = true
				sp.SetNum("docs", float64(res.SampleSize))
				return
			case outcomeSkip, outcomeRequeue:
				// The sample is an unordered batch, so a breaker-open
				// fast-fail is a skip here too: there is no "later" position
				// to requeue to before initial training needs the doc.
				if outcome == outcomeRequeue {
					reason = obs.ReasonBreakerOpen
				}
				if !r.processed[d.ID] {
					r.processed[d.ID] = true
					r.markSkipped(d.ID, reason)
				}
				continue
			}
			r.sampled = append(r.sampled, ld)
			if r.processed[d.ID] {
				continue
			}
			r.processed[d.ID] = true
			res.SampleSize++
			if ld.Useful {
				res.SampleUseful++
			}
			r.collect(ld.Tuples)
			res.Time.Extraction += r.opts.ExtractionCost
			r.cSample.Inc()
			if r.rec.Enabled() {
				r.rec.Record(obs.Event{Kind: obs.KindSampleLabelled, Doc: int64(d.ID),
					Useful: ld.Useful, Dur: r.opts.ExtractionCost})
			}
		}
		sp.SetNum("docs", float64(res.SampleSize)).SetNum("useful", float64(res.SampleUseful))
	})
	return !res.Interrupted
}

// trainInit trains the initial model on the labelled sample.
func (r *run) trainInit() {
	sp, d := r.phase(obs.SpanTrainInit, func(sp *obs.Span) {
		r.opts.Strategy.Init(r.sampled)
		sp.SetNum("docs", float64(len(r.sampled)))
	})
	r.res.Time.Training += d
	r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseInitTrain, N: len(r.sampled), Dur: d})
	r.explainSnapshot(explain.StageTrainInit, sp.ID(), 0, 0)
}

// primeDetector hands the labelled sample to a detector that consumes
// one.
func (r *run) primeDetector() {
	if r.opts.Detector == nil {
		return
	}
	_, d := r.phase(obs.SpanDetectorPrime, func(sp *obs.Span) {
		switch p := r.opts.Detector.(type) {
		case labeledPrimer:
			xs := make([]vector.Sparse, len(r.sampled))
			ys := make([]bool, len(r.sampled))
			for i, ld := range r.sampled {
				xs[i] = r.feats(ld.Doc)
				ys[i] = ld.Useful
			}
			p.Prime(xs, ys)
		case unlabeledPrimer:
			xs := make([]vector.Sparse, len(r.sampled))
			for i, ld := range r.sampled {
				xs[i] = r.feats(ld.Doc)
			}
			p.Prime(xs)
		}
		sp.SetNum("docs", float64(len(r.sampled)))
	})
	r.res.Time.Detection += d
	r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetectorPrime, N: len(r.sampled), Dur: d})
}

// buildPool fills the pending pool: the unprocessed collection, or in
// the search-interface scenario the keyword-query retrieval.
func (r *run) buildPool() {
	opts := &r.opts
	if opts.SearchIface == nil {
		for _, d := range opts.Coll.Docs() {
			if !r.processed[d.ID] {
				r.pending = append(r.pending, d)
			}
		}
	} else {
		pool := make(map[corpus.DocID]bool)
		for _, q := range opts.SearchIface.InitialQueries {
			for _, h := range opts.SearchIface.Index.Search(q, opts.SearchIface.RetrieveK) {
				pool[h.Doc] = true
			}
		}
		ids := make([]corpus.DocID, 0, len(pool))
		//lint:allow detrand collection order is erased by the sort below
		for id := range pool {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if !r.processed[id] {
				r.pending = append(r.pending, opts.Coll.Doc(id))
			}
		}
	}
	r.scores = make(map[corpus.DocID]float64, len(r.pending))
}

// rank scores the pending pool and sorts it best-first. Workers each
// score one contiguous range; the values depend only on the model
// state, never on chunk or worker boundaries, so the ranking is the
// sequential one.
func (r *run) rank() {
	pending, workers := r.pending, max(r.opts.Workers, 1)
	sp, dt := r.phase(obs.SpanRank, func(sp *obs.Span) {
		if r.rec.Enabled() {
			r.rec.Record(obs.Event{Kind: obs.KindRankStarted, N: len(pending)})
		}
		out := make([]float64, len(pending))
		if workers == 1 || len(pending) < 256 {
			r.scoreRange(0, len(pending), out)
		} else {
			var wg sync.WaitGroup
			chunk := (len(pending) + workers - 1) / workers
			for lo := 0; lo < len(pending); lo += chunk {
				hi := min(lo+chunk, len(pending))
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.scoreRange(lo, hi, out)
				}()
			}
			wg.Wait()
		}
		for i, d := range pending {
			r.scores[d.ID] = out[i]
		}
		r.res.ScoredDocs += len(pending)
		scores := r.scores
		sort.SliceStable(pending, func(i, j int) bool {
			si, sj := scores[pending[i].ID], scores[pending[j].ID]
			if si != sj {
				return si > sj
			}
			return pending[i].ID < pending[j].ID
		})
		sp.SetNum("pool", float64(len(pending))).SetNum("workers", float64(workers))
	})
	r.res.Time.Ranking += dt
	r.cReranks.Inc()
	r.hRank.ObserveDuration(dt)
	if r.rec.Enabled() {
		r.rec.Record(obs.Event{Kind: obs.KindRankFinished, N: len(pending), Dur: dt})
	}
	r.attribute(sp.ID())
}

// attribute decomposes the freshly top-ranked documents' scores into
// exact per-feature contributions. It runs after the rank phase closes —
// attribution is introspection overhead, not ranking work — and re-uses
// the per-document feature cache the scoring pass just filled.
func (r *run) attribute(span int64) {
	if r.ex == nil {
		return
	}
	da, ok := r.opts.Strategy.(DocAttributor)
	if !ok {
		return
	}
	n := min(r.ex.AttribTopN(), len(r.pending))
	for i := 0; i < n; i++ {
		d := r.pending[i]
		a, ok := da.Attribute(d)
		if !ok {
			break
		}
		r.ex.RecordAttribution(explain.Record{
			Doc: int64(d.ID), Rank: i,
			Span: span, Pos: len(r.res.Order),
			Score: a.Score, Logistic: a.Logistic,
			Members: explainMembers(a, r.featName),
		})
	}
}

// scoreRange scores pending[lo:hi) into out in fixed sub-chunks, so
// batch scoring, cancellation checks, and worker partitioning all share
// one shape. Strategies with a batch fast path (BatchScorer) score a
// whole chunk through pooled buffers; a panic inside the batch path — or
// a strategy without one — falls back to per-document score, whose own
// recovery attributes the offending document. Both paths produce
// bitwise-identical scores (the BatchScorer contract), so chunk
// boundaries and fallbacks never change the ranking.
func (r *run) scoreRange(lo, hi int, out []float64) {
	const chunk = 256
	batcher, _ := r.opts.Strategy.(BatchScorer)
	for a := lo; a < hi; a += chunk {
		if r.ctx.Err() != nil {
			return // cancelled: the main loop exits right after
		}
		b := min(a+chunk, hi)
		if batcher != nil && r.scoreBatch(batcher, r.pending[a:b], out[a:b]) {
			continue
		}
		for i := a; i < b; i++ {
			out[i] = r.score(r.pending[i])
		}
	}
}

func (r *run) scoreBatch(b BatchScorer, docs []*corpus.Document, out []float64) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
			if r.rec.Enabled() {
				r.rec.Record(obs.Event{Kind: obs.KindWorkerPanic, Name: obs.PanicSiteScoreBatch})
			}
		}
	}()
	return b.ScoreBatch(docs, out)
}

// score wraps Strategy.Score with panic recovery so one bad feature
// vector cannot take down a worker goroutine (which would crash the
// whole process): the document is attributed, counted, and ranked last
// instead.
func (r *run) score(d *corpus.Document) (s float64) {
	defer func() {
		if p := recover(); p != nil {
			s = math.Inf(-1)
			r.cWorkerPanics.Inc()
			if r.rec.Enabled() {
				r.rec.Record(obs.Event{Kind: obs.KindWorkerPanic,
					Doc: int64(d.ID), Name: obs.PanicSiteScore})
			}
		}
	}()
	return r.opts.Strategy.Score(d)
}

// process is the document loop: label the next-ranked document, let the
// strategy and the detector observe it, and update and re-rank when
// either asks. Batch spans group the documents processed between two
// consecutive (re-)rankings; doc spans nest under them, giving the trace
// its run -> batch -> doc causal spine. Observe and detect are timed
// inline rather than as phases: a labelled phase per document would
// allocate on the hot path.
func (r *run) process() {
	res, opts := r.res, &r.opts
	r.prevSupport = modelSupport(opts.Strategy)
	batchDocs := 0
	spBatch := r.tr.Start(obs.SpanBatch)
	for r.cursor < len(r.pending) {
		if opts.MaxDocs > 0 && len(res.Order) >= opts.MaxDocs {
			break
		}
		if r.ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		d := r.pending[r.cursor]
		r.cursor++
		if r.processed[d.ID] {
			continue // duplicates can enter via search-interface growth
		}

		// Tuple extraction (simulated cost for precomputed oracles; real
		// extraction work for live oracles). A document is marked
		// processed only at a final outcome — success or skip — so a
		// breaker-open requeue can re-enter it later.
		ld, outcome, reason := r.label(d)
		if outcome == outcomeCancelled {
			res.Interrupted = true
			break
		}
		switch outcome {
		case outcomeRequeue:
			r.requeues[d.ID]++
			res.Requeued++
			r.cRequeued.Inc()
			if r.rec.Enabled() {
				r.rec.Record(obs.Event{Kind: obs.KindDocRequeued,
					Doc: int64(d.ID), N: r.requeues[d.ID]})
			}
			if r.requeues[d.ID] > opts.RequeueLimit {
				r.processed[d.ID] = true
				r.markSkipped(d.ID, obs.ReasonRequeueLimit)
			} else {
				r.pending = append(r.pending, d)
			}
			continue
		case outcomeSkip:
			r.processed[d.ID] = true
			r.markSkipped(d.ID, reason)
			continue
		}
		r.processed[d.ID] = true
		spDoc := r.tr.Start(obs.SpanDoc)
		batchDocs++
		r.collect(ld.Tuples)
		res.Order = append(res.Order, d.ID)
		res.OrderLabels = append(res.OrderLabels, ld.Useful)
		res.Time.Extraction += opts.ExtractionCost
		r.buffer = append(r.buffer, ld)
		r.cDocs.Inc()
		if ld.Useful {
			r.cUseful.Inc()
		}
		spDoc.SetNum("doc", float64(d.ID)).SetNum("cost_ns", float64(opts.ExtractionCost))
		if ld.Useful {
			spDoc.SetAttr("useful", "true")
		}
		if r.rec.Enabled() {
			r.rec.Record(obs.Event{Kind: obs.KindDocExtracted, Doc: int64(d.ID),
				Useful: ld.Useful, Dur: opts.ExtractionCost, Span: spDoc.ID()})
		}

		// Keep the explain logical clock on the ranked-phase position, so
		// detector decision records made below carry the position they
		// were decided at.
		r.ex.Advance(len(res.Order))

		// Strategy self-observation (A-FC re-ranks continuously).
		t := time.Now()
		selfRerank := opts.Strategy.Observe(ld)
		od := time.Since(t)
		res.Time.Ranking += od
		r.accObserve += od

		// Update detection.
		trigger := false
		if opts.Detector != nil {
			spDet := r.tr.Start(obs.SpanDetect)
			t = time.Now()
			trigger = opts.Detector.Observe(r.feats(d), ld.Useful)
			dt := time.Since(t)
			spDet.End()
			res.Time.Detection += dt
			res.DetectorTime += dt
			res.DetectorObservations++
			r.accDetect += dt
			r.hDetect.ObserveDuration(dt)
			if trigger {
				r.cFired.Inc()
			} else {
				r.cSuppressed.Inc()
			}
		}
		if trigger {
			r.err = r.update()
		}
		spDoc.End()
		if r.err != nil {
			break
		}
		if trigger || selfRerank {
			spBatch.SetNum("docs", float64(batchDocs)).End()
			r.pending = r.pending[r.cursor:]
			r.cursor = 0
			r.rank()
			spBatch = r.tr.Start(obs.SpanBatch)
			batchDocs = 0
		}
	}
	spBatch.SetNum("docs", float64(batchDocs)).End()
}

// update folds the buffered documents into the model (online — no
// retraining from scratch), re-baselines the detector, records feature
// churn and the explain snapshot, verifies the journal's model snapshot,
// and grows the pool in the search-interface scenario. It returns the
// error of a resume that diverged from its journal.
func (r *run) update() error {
	res, opts := r.res, &r.opts
	bufN := len(r.buffer)
	if r.rec.Enabled() {
		r.rec.Record(obs.Event{Kind: obs.KindDetectorFired, Name: opts.Detector.Name(), N: bufN})
	}
	sp, d := r.phase(obs.SpanTrainUpdate, func(sp *obs.Span) {
		opts.Strategy.Update(r.buffer)
		sp.SetNum("buffered", float64(bufN))
	})
	res.Time.Training += d
	r.cUpdates.Inc()
	r.hUpdate.ObserveDuration(d)
	r.buffer = r.buffer[:0]
	res.UpdatePositions = append(res.UpdatePositions, len(res.Order))
	opts.Detector.Reset()

	ev := obs.Event{Kind: obs.KindModelUpdated, N: bufN, Dur: d}
	if cur := modelSupport(opts.Strategy); cur != nil {
		for f := range cur {
			if !r.prevSupport[f] {
				ev.Added++
			}
		}
		for f := range r.prevSupport {
			if !cur[f] {
				ev.Removed++
			}
		}
		ev.Val = float64(len(cur))
		res.Churn = append(res.Churn, ChurnRecord{
			Position: len(res.Order), Added: ev.Added, Removed: ev.Removed, Size: len(cur),
		})
		r.prevSupport = cur
		r.opts.Metrics.Gauge(obs.MetricPipelineModelSupport).Set(ev.Val)
		r.opts.Metrics.Counter(obs.MetricPipelineFeaturesAdded).Add(int64(ev.Added))
		r.opts.Metrics.Counter(obs.MetricPipelineFeaturesRemoved).Add(int64(ev.Removed))
	}
	if r.rec.Enabled() {
		r.rec.Record(ev)
	}
	r.explainSnapshot(explain.StageTrainUpdate, sp.ID(), ev.Added, ev.Removed)

	// Journal a model snapshot at this update position; on resume this
	// verifies (rather than re-records) and aborts on divergence instead
	// of silently producing different results.
	if m, ok := opts.Strategy.(Modeler); ok && opts.Journal != nil && r.featName != nil {
		if w := m.Model(); w != nil {
			if err := opts.Journal.CheckSnapshot(len(res.Order), w.NNZ(), modelHash(w, r.featName)); err != nil {
				return fmt.Errorf("pipeline: resume diverged from journal: %w", err)
			}
		}
	}
	// Search-interface scenario: issue the top model features as fresh
	// queries and grow the pool.
	if opts.SearchIface != nil {
		r.pending = append(r.pending, retrieveByTopFeatures(*opts, r.processed)...)
	}
	return nil
}

// finish computes the quality metrics, flushes the aggregate phase
// events, and closes the trace. Every exit path — completion, MaxDocs,
// cancellation, resume divergence — funnels through it so partial
// results are always fully accounted.
func (r *run) finish() (*Result, error) {
	res, opts := r.res, &r.opts
	res.PoolSize = len(res.Order) + (len(r.pending) - r.cursor)
	if total, known := opts.Labels.TotalUseful(); known && !res.Interrupted {
		if denom := total - res.SampleUseful; denom <= 0 {
			// Degenerate corner: the sample already covered every useful
			// document; any order of the (useless) rest is perfect.
			res.Curve = make([]float64, 101)
			for i := range res.Curve {
				res.Curve[i] = 1
			}
			res.AP, res.AUC = 1, 0.5
		} else {
			res.Curve = metrics.RecallCurve(res.OrderLabels, denom)
			res.AP = metrics.AveragePrecision(res.OrderLabels)
			res.AUC = metrics.AUC(res.OrderLabels)
		}
	}
	r.opts.Metrics.Gauge(obs.MetricPipelinePoolSize).Set(float64(res.PoolSize))
	res.Time.Record(opts.Metrics)
	if r.rec.Enabled() {
		if r.accObserve > 0 {
			r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseStrategyObserve, Dur: r.accObserve})
		}
		if r.accDetect > 0 {
			r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetection, Dur: r.accDetect})
		}
		if opts.Journal != nil {
			r.rec.Record(obs.Event{Kind: obs.KindCheckpoint,
				Name: opts.Journal.Path(), N: opts.Journal.Entries()})
		}
		nUseful := 0
		for _, u := range res.OrderLabels {
			if u {
				nUseful++
			}
		}
		sp := r.spRun.SetNum("docs", float64(len(res.Order))).
			SetNum("useful", float64(nUseful))
		if res.Interrupted {
			sp.SetAttr("interrupted", "true")
		}
		sp.End()
		r.rec.Record(obs.Event{Kind: obs.KindRunFinished, N: len(res.Order), Dur: res.Time.Total()})
	}
	if r.err != nil {
		return res, r.err
	}
	if err := opts.Journal.Err(); err != nil {
		return res, fmt.Errorf("pipeline: journal write failed: %w", err)
	}
	// A completed resume must have reproduced every journaled model
	// snapshot it passed; skipping one means the replay updated its
	// model at different positions than the interrupted run.
	if !res.Interrupted {
		if ps := opts.Journal.UncheckedSnapshots(len(res.Order)); len(ps) > 0 {
			return res, fmt.Errorf("%w: journal snapshots at positions %v never reproduced",
				ErrResumeDiverged, ps)
		}
	}
	return res, nil
}

// Labelling outcomes of run.label.
const (
	outcomeOK = iota
	outcomeSkip
	outcomeRequeue
	outcomeCancelled
)

// label is the single path every extraction outcome flows through:
// journal replay first, then the (possibly resilient) live oracle.
// Successful outcomes are journaled — and flushed — before they can
// affect the model, so a crash never loses acknowledged work.
func (r *run) label(d *corpus.Document) (LabeledDoc, int, string) {
	if e, ok := r.opts.Journal.Lookup(d.ID); ok {
		if e.Skipped {
			return LabeledDoc{Doc: d}, outcomeSkip, e.Reason
		}
		return LabeledDoc{Doc: d, Useful: e.Useful, Tuples: e.Tuples}, outcomeOK, ""
	}
	useful, tuples, err := labelWithContext(r.ctx, r.opts.Labels, d)
	if err == nil {
		r.opts.Journal.RecordDoc(d.ID, useful, tuples)
		return LabeledDoc{Doc: d, Useful: useful, Tuples: tuples}, outcomeOK, ""
	}
	if r.ctx.Err() != nil {
		return LabeledDoc{Doc: d}, outcomeCancelled, ""
	}
	if errors.Is(err, ErrBreakerOpen) {
		return LabeledDoc{Doc: d}, outcomeRequeue, ""
	}
	reason := obs.ReasonPoisoned
	if !errors.Is(err, ErrDocPoisoned) {
		reason = obs.ReasonError
	}
	return LabeledDoc{Doc: d}, outcomeSkip, reason
}

// collect appends the tuples not seen before to Result.Tuples.
func (r *run) collect(tuples []relation.Tuple) {
	for _, t := range tuples {
		if !r.seenTuples[t] {
			r.seenTuples[t] = true
			r.res.Tuples = append(r.res.Tuples, t)
		}
	}
}

// markSkipped records an abandoned document. RecordSkip dedupes, so
// re-marking a journal-replayed skip is a no-op on disk.
func (r *run) markSkipped(id corpus.DocID, reason string) {
	r.opts.Journal.RecordSkip(id, reason)
	r.res.Skipped = append(r.res.Skipped, id)
	r.cSkipped.Inc()
	if r.rec.Enabled() {
		r.rec.Record(obs.Event{Kind: obs.KindDocSkipped, Doc: int64(id), Name: reason})
	}
}

func (r *run) feats(d *corpus.Document) vector.Sparse {
	if r.opts.Featurizer == nil {
		return vector.Sparse{}
	}
	return r.opts.Featurizer.Features(d)
}

// explainSnapshot records the model weight vector in the explain log
// (the weight-drift timeline).
func (r *run) explainSnapshot(stage string, span int64, added, removed int) {
	if r.ex == nil {
		return
	}
	if m, ok := r.opts.Strategy.(Modeler); ok {
		r.ex.RecordSnapshot(stage, span, len(r.res.Order), m.Model(), r.featName, added, removed)
	}
}

// modelSupport returns the set of the model's non-zero features, or nil
// for a strategy without a linear model.
func modelSupport(s Strategy) map[int32]bool {
	m, ok := s.(Modeler)
	if !ok || m.Model() == nil {
		return nil
	}
	sup := make(map[int32]bool, m.Model().NNZ())
	m.Model().Range(func(i int32, v float64) { sup[i] = true })
	return sup
}

// modelHash is a fingerprint of the model weights that is independent
// of both iteration order and feature ids: each weight is keyed by its
// feature name (rank workers intern ids in scheduling order, so a resumed
// run may number the same features differently), hashed with FNV-1a
// together with the weight's exact bits, and the per-feature hashes are
// XOR-combined. Snapshots recorded in the journal at each update, with
// the model's nnz, verify that a resumed run's model evolves identically
// to the original.
func modelHash(w *vector.Weights, name func(int32) string) (sum uint64) {
	w.Range(func(i int32, v float64) {
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		n := name(i)
		for j := 0; j < len(n); j++ {
			h ^= uint64(n[j])
			h *= prime
		}
		bits := math.Float64bits(v)
		for j := 0; j < 64; j += 8 {
			h ^= (bits >> j) & 0xff
			h *= prime
		}
		// splitmix64 finalizer: decorrelate before XOR-combining.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		sum ^= h
	})
	return sum
}

// explainMembers converts a ranking attribution into explain log
// members, resolving feature indices to names. Contribution order — and
// therefore the bitwise score-reconstruction contract — is preserved.
func explainMembers(a ranking.Attribution, name func(int32) string) []explain.Member {
	out := make([]explain.Member, len(a.Members))
	for i, m := range a.Members {
		em := explain.Member{Bias: m.Bias, Margin: m.Margin}
		if len(m.Contribs) > 0 {
			em.Contribs = make([]explain.Feature, len(m.Contribs))
			for j, c := range m.Contribs {
				em.Contribs[j] = explain.Feature{Index: c.Index, Weight: c.Value}
				if name != nil {
					em.Contribs[j].Name = name(c.Index)
				}
			}
		}
		out[i] = em
	}
	return out
}

// retrieveByTopFeatures turns the strategy's strongest positive model
// features into keyword queries and returns the unseen retrieved documents.
func retrieveByTopFeatures(opts Options, processed map[corpus.DocID]bool) []*corpus.Document {
	m, ok := opts.Strategy.(Modeler)
	if !ok || m.Model() == nil || opts.Featurizer == nil {
		return nil
	}
	var out []*corpus.Document
	seen := make(map[corpus.DocID]bool)
	top := m.Model().TopK(opts.SearchIface.TopFeatures)
	for _, f := range top {
		if f.Weight <= 0 {
			continue
		}
		name := opts.Featurizer.FeatureName(f.Index)
		term := strings.TrimPrefix(name, "w=")
		for _, h := range opts.SearchIface.Index.Search(term, opts.SearchIface.PerFeatureK) {
			if !processed[h.Doc] && !seen[h.Doc] {
				seen[h.Doc] = true
				out = append(out, opts.Coll.Doc(h.Doc))
			}
		}
	}
	return out
}
