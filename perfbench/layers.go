package main

import (
	"context"
	"sync"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
	"adaptiverank/internal/vector"
)

// layer is one layer whose public interface a traced run wraps in a
// clock. Featurization and scoring in the parallel rank pass are timed
// separately (see rankEnter), because they run on worker goroutines.
type layer int

const (
	layerExtract        layer = iota // pipeline.Oracle
	layerTrainFeaturize              // pipeline.Strategy Init and Update, less the ranker's Learn
	layerLearn                       // ranking.Ranker.Learn
	layerObserve                     // update.Detector.Observe
	layerPrime                       // update.Detector Prime (both variants)
	layerReset                       // update.Detector.Reset
	layerRecord                      // obs.Recorder.Record
	numLayers
)

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// layerClock accumulates one run's time per layer. Calls nest (Update
// calls Learn, Observe calls Record), so each call's duration is charged
// to its own layer less the time of the wrapped calls made inside it:
// its self time. Self times of distinct layers never overlap, so their
// sum plus the residual is the run's wall time.
type layerClock struct {
	start time.Time

	mu    sync.Mutex
	stack []frame
	self  [numLayers]time.Duration
	total [numLayers]time.Duration // including nested wrapped calls
	calls [numLayers]int64

	// The rank pass scores chunks on several goroutines. rankWall is the
	// wall time during which at least one chunk was in flight; featCPU
	// and scoreCPU are the chunk times summed over goroutines, and split
	// rankWall between the two layers.
	busy              int
	busySince         time.Time
	rankWall          time.Duration
	featCPU, scoreCPU time.Duration
	rankDocs          int64

	extracts    []call          // extraction log, in call order
	learnInit   time.Duration   // Learn self time inside Strategy.Init
	learnUpdate []time.Duration // Learn self time of each Strategy.Update
	trainDocs   int64           // documents passed to Init and Update
	fires       int64
}

func newLayerClock(start time.Time, docs int) *layerClock {
	return &layerClock{start: start, extracts: make([]call, 0, docs)}
}

func (c *layerClock) enter(l layer) {
	c.mu.Lock()
	c.stack = append(c.stack, frame{l: l, start: time.Now()})
	c.mu.Unlock()
}

func (c *layerClock) exit() {
	now := time.Now()
	c.mu.Lock()
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	d := now.Sub(f.start)
	c.self[f.l] += d - f.child
	c.total[f.l] += d
	c.calls[f.l]++
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += d
	}
	c.mu.Unlock()
}

func (c *layerClock) learnSelf() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.self[layerLearn]
}

func (c *layerClock) rankEnter() time.Time {
	now := time.Now()
	c.mu.Lock()
	if c.busy == 0 {
		c.busySince = now
	}
	c.busy++
	c.mu.Unlock()
	return now
}

func (c *layerClock) rankExit(t0, t1 time.Time, docs int) {
	t2 := time.Now()
	c.mu.Lock()
	c.busy--
	if c.busy == 0 {
		c.rankWall += t2.Sub(c.busySince)
	}
	c.featCPU += t1.Sub(t0)
	c.scoreCPU += t2.Sub(t1)
	c.rankDocs += int64(docs)
	c.mu.Unlock()
}

// rankSplit divides the rank pass's wall time between featurization and
// scoring in proportion to their summed chunk times.
func (c *layerClock) rankSplit() (feat, score time.Duration) {
	cpu := c.featCPU + c.scoreCPU
	if cpu == 0 {
		return 0, 0
	}
	feat = time.Duration(float64(c.rankWall) * float64(c.featCPU) / float64(cpu))
	return feat, c.rankWall - feat
}

// clockedOracle wraps a pipeline.Oracle (the extraction layer).
type clockedOracle struct {
	inner pipeline.Oracle
	c     *layerClock
}

func (o *clockedOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	o.c.enter(layerExtract)
	useful, ts := o.inner.Label(d)
	o.c.exit()
	o.c.extracts = append(o.c.extracts, call{at: time.Since(o.c.start), useful: useful})
	return useful, ts
}

func (o *clockedOracle) TotalUseful() (int, bool) { return o.inner.TotalUseful() }

// clockedContextOracle is clockedOracle over a pipeline.ContextOracle,
// which the pipeline prefers when the oracle implements it.
type clockedContextOracle struct {
	*clockedOracle
	ctxInner pipeline.ContextOracle
}

func (o *clockedContextOracle) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	o.c.enter(layerExtract)
	useful, ts, err := o.ctxInner.LabelContext(ctx, d)
	o.c.exit()
	if err == nil {
		o.c.extracts = append(o.c.extracts, call{at: time.Since(o.c.start), useful: useful})
	}
	return useful, ts, err
}

// wrapOracle returns a clocked oracle with the same optional interfaces
// as o. Neither pipeline oracle of a fault-free run is obs.Instrumentable.
func wrapOracle(o pipeline.Oracle, c *layerClock) pipeline.Oracle {
	base := &clockedOracle{inner: o, c: c}
	if co, ok := o.(pipeline.ContextOracle); ok {
		return &clockedContextOracle{clockedOracle: base, ctxInner: co}
	}
	return base
}

// clockedStrategy wraps the learned strategy. Embedding *pipeline.Learned
// gives it exactly Learned's method set, so every optional interface the
// pipeline type-asserts (BatchScorer, Modeler, DocAttributor,
// Instrumentable, TraceInstrumentable) is forwarded.
type clockedStrategy struct {
	*pipeline.Learned
	c *layerClock
}

func (s *clockedStrategy) Init(sample []pipeline.LabeledDoc) {
	before := s.c.learnSelf()
	s.c.enter(layerTrainFeaturize)
	s.Learned.Init(sample)
	s.c.exit()
	s.c.learnInit += s.c.learnSelf() - before
	s.c.trainDocs += int64(len(sample))
}

func (s *clockedStrategy) Update(buffered []pipeline.LabeledDoc) {
	before := s.c.learnSelf()
	s.c.enter(layerTrainFeaturize)
	s.Learned.Update(buffered)
	s.c.exit()
	s.c.learnUpdate = append(s.c.learnUpdate, s.c.learnSelf()-before)
	s.c.trainDocs += int64(len(buffered))
}

// ScoreBatch featurizes the chunk first, so that the delegated call finds
// every feature vector cached and times scoring alone. Features are
// cached per document and deterministic, so the scores do not change.
func (s *clockedStrategy) ScoreBatch(docs []*corpus.Document, out []float64) bool {
	t0 := s.c.rankEnter()
	for _, d := range docs {
		s.F.FeaturesPacked(d)
	}
	t1 := time.Now()
	ok := s.Learned.ScoreBatch(docs, out)
	s.c.rankExit(t0, t1, len(docs))
	return ok
}

// clockedRanker wraps a ranking.Ranker and forwards the optional
// interfaces both learned rankers implement: PackedScorer, Attributor,
// obs.Instrumentable and obs.TraceInstrumentable.
type clockedRanker struct {
	ranking.Ranker
	c *layerClock
}

func (r *clockedRanker) Learn(x vector.Sparse, useful bool) {
	r.c.enter(layerLearn)
	r.Ranker.Learn(x, useful)
	r.c.exit()
}

func (r *clockedRanker) ScorePacked(x vector.Packed) float64 {
	return r.Ranker.(ranking.PackedScorer).ScorePacked(x)
}

func (r *clockedRanker) ScoreBatch(xs []vector.Packed, out []float64) {
	r.Ranker.(ranking.PackedScorer).ScoreBatch(xs, out)
}

func (r *clockedRanker) Attribute(x vector.Packed) ranking.Attribution {
	return r.Ranker.(ranking.Attributor).Attribute(x)
}

func (r *clockedRanker) Instrument(reg *obs.Registry, rec obs.Recorder) {
	r.Ranker.(obs.Instrumentable).Instrument(reg, rec)
}

func (r *clockedRanker) InstrumentTracer(tr *obs.Tracer) {
	r.Ranker.(obs.TraceInstrumentable).InstrumentTracer(tr)
}

// clockedDetector wraps an update.Detector. All four detectors are
// obs.Instrumentable and obs.TraceInstrumentable; the Prime variants
// differ, so wrapDetector picks the wrapper type with the inner one's.
type clockedDetector struct {
	inner update.Detector
	c     *layerClock
}

func (d *clockedDetector) Name() string { return d.inner.Name() }

func (d *clockedDetector) Observe(x vector.Sparse, useful bool) bool {
	d.c.enter(layerObserve)
	fired := d.inner.Observe(x, useful)
	d.c.exit()
	if fired {
		d.c.fires++
	}
	return fired
}

func (d *clockedDetector) Reset() {
	d.c.enter(layerReset)
	d.inner.Reset()
	d.c.exit()
}

func (d *clockedDetector) Instrument(reg *obs.Registry, rec obs.Recorder) {
	d.inner.(obs.Instrumentable).Instrument(reg, rec)
}

func (d *clockedDetector) InstrumentTracer(tr *obs.Tracer) {
	d.inner.(obs.TraceInstrumentable).InstrumentTracer(tr)
}

type labeledPrimer interface {
	Prime(xs []vector.Sparse, useful []bool)
}

type unlabeledPrimer interface {
	Prime(xs []vector.Sparse)
}

type labeledPrimeDetector struct {
	*clockedDetector
	p labeledPrimer
}

func (d *labeledPrimeDetector) Prime(xs []vector.Sparse, useful []bool) {
	d.c.enter(layerPrime)
	d.p.Prime(xs, useful)
	d.c.exit()
}

type unlabeledPrimeDetector struct {
	*clockedDetector
	p unlabeledPrimer
}

func (d *unlabeledPrimeDetector) Prime(xs []vector.Sparse) {
	d.c.enter(layerPrime)
	d.p.Prime(xs)
	d.c.exit()
}

func wrapDetector(det update.Detector, c *layerClock) update.Detector {
	base := &clockedDetector{inner: det, c: c}
	switch p := det.(type) {
	case labeledPrimer:
		return &labeledPrimeDetector{clockedDetector: base, p: p}
	case unlabeledPrimer:
		return &unlabeledPrimeDetector{clockedDetector: base, p: p}
	}
	return base
}

// clockedRecorder wraps the run's obs.Recorder (the sink fan-out of an
// armed run, the no-op recorder otherwise).
type clockedRecorder struct {
	inner obs.Recorder
	c     *layerClock
}

func (r *clockedRecorder) Enabled() bool { return r.inner.Enabled() }

func (r *clockedRecorder) Record(e obs.Event) {
	r.c.enter(layerRecord)
	r.inner.Record(e)
	r.c.exit()
}
