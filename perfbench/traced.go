package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"adaptiverank"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/update"
)

// tracedRun is one pipeline run with every layer interface wrapped.
type tracedRun struct {
	runFigures
	c           *layerClock
	overhead    time.Duration // the program's own Result.RankingOverhead
	vocab, nnz  int
	gcs         uint32
	gcPause     time.Duration
	profWindows int64
	bytes       int64
	files       int
}

// newLearners builds the ranker and detector exactly as adaptiverank.Run
// does for w. The detector reads the unwrapped ranker, so that Mod-C's
// shadow training is charged to the detector, not to ranking.learn.
func (w workload) newLearners(collLen int) (ranking.Ranker, update.Detector) {
	var r ranking.Ranker
	switch w.strategy {
	case adaptiverank.RSVMIE:
		r = ranking.NewRSVMIE(ranking.RSVMOptions{Seed: runSeed})
	case adaptiverank.BAggIE:
		r = ranking.NewBAggIE(ranking.BAggOptions{})
	default:
		panic(fmt.Sprintf("workload %s: unsupported strategy %d", w.name, w.strategy))
	}
	var d update.Detector
	switch w.detector {
	case adaptiverank.ModC:
		alpha := 5.0
		if w.strategy == adaptiverank.BAggIE {
			alpha = 30
		}
		d = update.NewModC(r, 0.1, alpha, runSeed+100)
	case adaptiverank.TopK:
		d = update.NewTopK(update.TopKOptions{})
	case adaptiverank.WindF:
		d = update.NewWindF(collLen / 50)
	case adaptiverank.FeatS:
		d = update.NewFeatS(update.FeatSOptions{})
	default:
		panic(fmt.Sprintf("workload %s: unsupported detector %d", w.name, w.detector))
	}
	return r, d
}

// tracedPipeline runs the pipeline over coll with every layer wrapped in
// c's clock, wired as adaptiverank.Run wires it.
func (w workload) tracedPipeline(coll *adaptiverank.Collection, c *layerClock, s *sinks) (*pipeline.Result, *ranking.Featurizer, ranking.Ranker, error) {
	ex := adaptiverank.BuiltinExtractor(rel)
	feat := ranking.NewFeaturizer()
	inner, det := w.newLearners(coll.Len())
	opts := pipeline.Options{
		Rel:            ex.Relation(),
		ExtractionCost: ex.SimulatedCost(),
		Coll:           coll,
		Labels:         wrapOracle(&pipeline.ExtractorOracle{Ex: ex}, c),
		Sample:         sampling.SRS(coll, sampleSize(coll.Len()), runSeed),
		Strategy:       &clockedStrategy{Learned: pipeline.NewLearned(&clockedRanker{Ranker: inner, c: c}, feat), c: c},
		Detector:       wrapDetector(det, c),
		Featurizer:     feat,
		Workers:        procs(),
		Recorder:       &clockedRecorder{inner: obs.Nop(), c: c},
	}
	if s != nil {
		opts.Metrics, opts.Explain = s.reg, s.explainer
		opts.Recorder = &clockedRecorder{inner: s.rec, c: c}
		j, err := pipeline.CreateJournal(s.journal, s.fingerprint)
		if err != nil {
			return nil, nil, nil, err
		}
		opts.Journal = j
	}
	c.start = time.Now()
	res, err := pipeline.RunContext(context.Background(), opts)
	if cerr := opts.Journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return res, feat, inner, err
}

func (b *bench) tracedRun(cc *corpusCase) (tracedRun, error) {
	coll, err := cc.fresh()
	if err != nil {
		return tracedRun{}, err
	}
	var s *sinks
	if b.w.armed {
		fp := adaptiverank.Fingerprint(coll, adaptiverank.BuiltinExtractor(rel), b.w.options())
		if s, err = armSinks(b.runDir(), fp); err != nil {
			return tracedRun{}, err
		}
	}
	c := newLayerClock(time.Time{}, coll.Len())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, feat, inner, err := b.w.tracedPipeline(coll, c, s)
	wall := time.Since(c.start)
	runtime.ReadMemStats(&m1)

	r := tracedRun{c: c, gcs: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}
	if s != nil {
		r.profWindows = s.reg.CounterValue(obs.MetricProfCPUWindows)
		r.bytes, r.files, err = s.finish(err)
	}
	if err != nil {
		return r, err
	}
	docs := res.SampleSize + len(res.Order)
	r.runFigures = runFigures{wall: wall, docs: docs, updates: len(res.UpdatePositions)}
	r.overhead = res.Time.Overhead()
	r.vocab = feat.Vocab.Len()
	if m := inner.Model(); m != nil {
		r.nnz = m.NNZ()
	}
	if err := cc.check(coll, res.Order, res.Tuples, len(res.UpdatePositions), docs, res.Skipped, res.Interrupted); err != nil {
		return r, fmt.Errorf("traced run: %w", err)
	}
	r.t90, r.d90, r.steps, err = figures(c.extracts, cc.target(), res.SampleSize)
	return r, err
}

// traced alternates a timed and a traced run over each corpus for the
// given time, after one warm-up run, and reports the per-layer metrics.
// The timed run of each pair sets the digest its traced twin must match.
func (b *bench) traced(seconds float64) error {
	b.warmUp()
	var timedRate, tracedRate []float64
	var runs []tracedRun
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		cc := b.cases[i%len(b.cases)]
		tr, err := b.timedRun(cc, b.w.armed)
		b.attempted += len(cc.tuples)
		b.failed += tr.failedDocs
		if err != nil {
			b.fail(cc, err)
			continue
		}
		timedRate = append(timedRate, tr.docsPerS())
		r, err := b.tracedRun(cc)
		b.attempted += len(cc.tuples)
		if err != nil {
			b.failed += len(cc.tuples)
			b.fail(cc, err)
			continue
		}
		tracedRate = append(tracedRate, r.docsPerS())
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no traced run completed")
	}
	b.layerMetrics(runs)
	b.put("pipeline.trace_overhead", median(timedRate)/median(tracedRate)-1, "ratio")
	b.note("traced runs: %d", len(runs))
	return nil
}

// layerMetrics folds the traced runs into the per-layer metrics. Counts
// are per run; times are summed over runs before dividing.
func (b *bench) layerMetrics(runs []tracedRun) {
	var (
		n                                      = float64(len(runs))
		wall, overhead, rankWall               time.Duration
		self, total                            [numLayers]time.Duration
		calls                                  [numLayers]int64
		featWall, scoreWall, featCPU, scoreCPU time.Duration
		rankDocs, trainDocs, fires, useful     int64
		learnInit                              time.Duration
		learnUpdates, steps                    []float64
		vocab, nnz, gcs, profWindows, files    float64
		gcPause                                time.Duration
		bytes                                  int64
	)
	for _, r := range runs {
		c := r.c
		wall += r.wall
		overhead += r.overhead
		rankWall += c.rankWall
		for l := layer(0); l < numLayers; l++ {
			self[l] += c.self[l]
			total[l] += c.total[l]
			calls[l] += c.calls[l]
		}
		fw, sw := c.rankSplit()
		featWall += fw
		scoreWall += sw
		featCPU += c.featCPU
		scoreCPU += c.scoreCPU
		rankDocs += c.rankDocs
		trainDocs += c.trainDocs
		fires += c.fires
		for _, e := range c.extracts {
			if e.useful {
				useful++
			}
		}
		learnInit += c.learnInit
		for _, d := range c.learnUpdate {
			learnUpdates = append(learnUpdates, float64(d)/float64(time.Millisecond))
		}
		steps = append(steps, r.steps...)
		vocab += float64(r.vocab)
		nnz += float64(r.nnz)
		gcs += float64(r.gcs)
		gcPause += r.gcPause
		profWindows += float64(r.profWindows)
		bytes += r.bytes
		files += float64(r.files)
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(wall) }
	per := func(d time.Duration, k int64) float64 {
		if k == 0 {
			return 0
		}
		return float64(d) / float64(k)
	}
	featSelf := featWall + self[layerTrainFeaturize]
	updateSelf := self[layerObserve] + self[layerPrime] + self[layerReset]
	accounted := self[layerExtract] + featSelf + scoreWall + self[layerLearn] + updateSelf + self[layerRecord]

	b.put("extract.calls", float64(calls[layerExtract])/n, "count")
	b.put("extract.ns_per_call", per(self[layerExtract], calls[layerExtract]), "ns")
	b.put("extract.share", share(self[layerExtract]), "ratio")
	b.put("extract.useful_ratio", float64(useful)/float64(calls[layerExtract]), "ratio")

	b.put("ranking.featurize.docs", float64(rankDocs+trainDocs)/n, "count")
	b.put("ranking.featurize.ns_per_doc", per(featCPU+self[layerTrainFeaturize], rankDocs+trainDocs), "ns")
	b.put("ranking.featurize.share", share(featSelf), "ratio")
	b.put("ranking.featurize.vocab", vocab/n, "count")

	b.put("ranking.score.docs", float64(rankDocs)/n, "count")
	b.put("ranking.score.ns_per_doc", per(scoreCPU, rankDocs), "ns")
	b.put("ranking.score.share", share(scoreWall), "ratio")

	b.put("ranking.learn.docs", float64(calls[layerLearn])/n, "count")
	b.put("ranking.learn.ns_per_doc", per(self[layerLearn], calls[layerLearn]), "ns")
	b.put("ranking.learn.share", share(self[layerLearn]), "ratio")
	b.put("ranking.learn.init_ms", float64(learnInit)/float64(time.Millisecond)/n, "ms")
	b.put("ranking.learn.update_ms_p50", median(learnUpdates), "ms")
	b.put("ranking.learn.model_nnz", nnz/n, "count")
	b.put("ranking.learn.nnz_over_vocab", nnz/vocab, "ratio")

	b.put("update.observe.calls", float64(calls[layerObserve])/n, "count")
	b.put("update.observe.ns_per_call", per(self[layerObserve], calls[layerObserve]), "ns")
	b.put("update.observe.share", share(self[layerObserve]), "ratio")
	b.put("update.share", share(updateSelf), "ratio")
	b.put("update.fires", float64(fires)/n, "count")
	// Mod-C has no Prime, so Prime is reported together with the Resets
	// after each update: the detector's re-baselining work.
	b.put("update.prime_reset_ms", float64(self[layerPrime]+self[layerReset])/float64(time.Millisecond)/n, "ms")
	b.put("update.reset_ns", per(self[layerReset], calls[layerReset]), "ns")

	b.put("pipeline.step_us_p50", quantile(steps, 0.5), "us")
	b.put("pipeline.step_us_p99", quantile(steps, 0.99), "us")
	b.put("pipeline.residual_share", share(wall-accounted), "ratio")
	// The program's own account of ranking, training and detection time
	// covers the rank pass, Strategy.Init/Update and detector Observe and
	// Prime; the wrappers time the same calls.
	measured := rankWall + total[layerTrainFeaturize] + total[layerObserve] + total[layerPrime]
	b.put("pipeline.overhead_agreement", float64(measured)/float64(overhead), "ratio")

	b.put("obs.record.events", float64(calls[layerRecord])/n, "count")
	b.put("obs.record.ns_per_event", per(self[layerRecord], calls[layerRecord]), "ns")
	b.put("obs.record.share", share(self[layerRecord]), "ratio")
	b.put("obs.prof.cpu_windows", profWindows/n, "count")
	b.put("durable.bytes_written", float64(bytes)/n, "bytes")
	b.put("durable.files", files/n, "count")

	b.put("runtime.gc_cycles", gcs/n, "count")
	b.put("runtime.gc_pause_ms", float64(gcPause)/float64(time.Millisecond)/n, "ms")
}
