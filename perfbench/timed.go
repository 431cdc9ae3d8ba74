package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"adaptiverank"
)

// call is one extractor call: when it returned, relative to the start
// of the run, and whether the document was useful.
type call struct {
	at     time.Duration
	useful bool
}

// clockExtractor reads the clock after every extractor call. It is the
// only instrumentation of a timed run. The built-in extractors
// implement no optional interface (such as extract.ContextExtractor), so
// embedding the interface forwards everything the pipeline can use.
type clockExtractor struct {
	adaptiverank.Extractor
	start time.Time
	calls []call
}

func (c *clockExtractor) Extract(d *adaptiverank.Document) []adaptiverank.Tuple {
	ts := c.Extractor.Extract(d)
	c.calls = append(c.calls, call{at: time.Since(c.start), useful: len(ts) > 0})
	return ts
}

// runFigures are the per-run numbers both run kinds derive from their
// extractor call log.
type runFigures struct {
	wall    time.Duration
	docs    int
	t90     time.Duration // until the call that reached the recall target
	d90     int           // documents processed up to and including it
	steps   []float64     // µs between successive ranked-phase calls
	updates int
}

func (f runFigures) docsPerS() float64 { return float64(f.docs) / f.wall.Seconds() }

// figures derives the recall arrival and the step intervals from calls.
// Intervals are taken in the ranked phase only (after the sample).
func figures(calls []call, target, sample int) (t90 time.Duration, d90 int, steps []float64, err error) {
	useful := 0
	for i, c := range calls {
		if c.useful {
			useful++
			if useful == target {
				t90, d90 = c.at, i+1
			}
		}
		if i > sample {
			steps = append(steps, float64(calls[i].at-calls[i-1].at)/float64(time.Microsecond))
		}
	}
	if d90 == 0 {
		return 0, 0, nil, fmt.Errorf("recall target %d never reached (%d useful found)", target, useful)
	}
	return t90, d90, steps, nil
}

// timedRun is one whole adaptiverank.Run over cc's regenerated documents,
// with the workload's sinks armed when asked.
type timedRun struct {
	runFigures
	allocBytes uint64
	failedDocs int
}

func (b *bench) timedRun(cc *corpusCase, armed bool) (timedRun, error) {
	coll, err := cc.fresh()
	if err != nil {
		return timedRun{}, err
	}
	ex := &clockExtractor{Extractor: adaptiverank.BuiltinExtractor(rel), calls: make([]call, 0, coll.Len())}
	opts := b.w.options()
	var s *sinks
	if armed {
		if s, err = armSinks(b.runDir(), adaptiverank.Fingerprint(coll, ex, opts)); err != nil {
			return timedRun{}, err
		}
		opts.Metrics, opts.Recorder, opts.Explain, opts.Checkpoint = s.reg, s.rec, s.explainer, s.journal
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ex.start = time.Now()
	res, err := adaptiverank.Run(coll, ex, opts)
	wall := time.Since(ex.start)
	runtime.ReadMemStats(&m1)

	if s != nil {
		_, _, err = s.finish(err)
	}
	if err != nil {
		return timedRun{failedDocs: coll.Len()}, err
	}
	r := timedRun{runFigures: runFigures{wall: wall, docs: res.DocsProcessed, updates: res.Updates},
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, failedDocs: len(res.Skipped)}
	if err := cc.check(coll, res.Order, res.Tuples, res.Updates, res.DocsProcessed, res.Skipped, res.Interrupted); err != nil {
		r.failedDocs = coll.Len()
		return r, err
	}
	r.t90, r.d90, r.steps, err = figures(ex.calls, cc.target(), sampleSize(coll.Len()))
	if err != nil {
		r.failedDocs = coll.Len()
	}
	return r, err
}

// timed measures whole runs, cycling the corpora, for the given time
// after one warm-up run, and reports the end-to-end metrics. It runs
// every corpus at least once even when that takes longer, so that the
// corpora averaged over never depend on how fast the program is.
func (b *bench) timed(seconds float64) error {
	b.warmUp()
	var docsPerS, t90, d90, allocKB perCorpus
	start := time.Now()
	runs := 0
	for i := 0; i < len(b.cases) || time.Since(start).Seconds() < seconds; i++ {
		k := i % len(b.cases)
		cc := b.cases[k]
		r, err := b.timedRun(cc, b.w.armed)
		b.attempted += len(cc.tuples)
		b.failed += r.failedDocs
		if err != nil {
			b.fail(cc, err)
			continue
		}
		runs++
		b.note("run %d: corpus %d, %.3f s, %.0f docs/s, %d updates, 90%% recall after %d docs / %.3f s, step p50 %.1f us",
			i, cc.seed, r.wall.Seconds(), r.docsPerS(), r.updates, r.d90, r.t90.Seconds(), quantile(r.steps, 0.5))
		docsPerS.add(k, r.docsPerS())
		t90.add(k, r.t90.Seconds())
		d90.add(k, float64(r.d90))
		allocKB.add(k, float64(r.allocBytes)/1024/float64(r.docs))
	}
	b.put("docs_per_s", docsPerS.mean(), "1/s")
	b.put("time_to_90_recall_s", t90.mean(), "s")
	b.put("docs_to_90_recall", d90.mean(), "docs")
	b.put("alloc_kb_per_doc", allocKB.mean(), "KB")
	b.put("peak_rss_mb", peakRSSMB(), "MB")
	b.put("setup_s", median(b.setupTimes), "s")
	b.note("timed runs: %d over %d corpora", runs, docsPerS.corpora())
	return nil
}

// warmUp runs the workload's configuration once, unarmed and unmeasured,
// so that the heap and the extractor's lazily built state have settled
// before the first measured run. Its outputs are still checked.
func (b *bench) warmUp() {
	if _, err := b.timedRun(b.cases[0], false); err != nil {
		b.fail(b.cases[0], err)
	}
}

// runDir returns a fresh artifact directory for the next armed run.
func (b *bench) runDir() string {
	b.armedRuns++
	return filepath.Join(b.artifacts, fmt.Sprintf("run-%d", b.armedRuns))
}
