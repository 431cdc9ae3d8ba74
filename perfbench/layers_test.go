package main

import (
	"reflect"
	"testing"
	"time"

	"adaptiverank"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
)

var (
	rankers = []adaptiverank.Strategy{adaptiverank.RSVMIE, adaptiverank.BAggIE}
	detects = []adaptiverank.Detector{adaptiverank.ModC, adaptiverank.TopK, adaptiverank.WindF, adaptiverank.FeatS}
)

// sameInterfaces fails unless wrapped implements exactly those of the
// interfaces that inner implements.
func sameInterfaces(t *testing.T, what string, inner, wrapped any, ifaces ...reflect.Type) {
	t.Helper()
	for _, it := range ifaces {
		in := reflect.TypeOf(inner).Implements(it)
		out := reflect.TypeOf(wrapped).Implements(it)
		if in != out {
			t.Errorf("%s: inner implements %v = %v, wrapper = %v", what, it, in, out)
		}
	}
}

func iface[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// TestWrappersForwardOptionalInterfaces pins that every wrapper offers
// the pipeline the same optional interfaces as what it wraps, for both
// rankers and all four detectors.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	c := newLayerClock(time.Now(), 0)
	instr := []reflect.Type{iface[obs.Instrumentable](), iface[obs.TraceInstrumentable]()}
	for _, s := range rankers {
		for _, d := range detects {
			w := workload{name: "test", strategy: s, detector: d}
			r, det := w.newLearners(1000)
			cr := &clockedRanker{Ranker: r, c: c}
			sameInterfaces(t, r.Name(), r, cr, append([]reflect.Type{
				iface[ranking.PackedScorer](), iface[ranking.Attributor]()}, instr...)...)

			feat := ranking.NewFeaturizer()
			plain := pipeline.NewLearned(r, feat)
			wrapped := &clockedStrategy{Learned: pipeline.NewLearned(cr, feat), c: c}
			sameInterfaces(t, "strategy "+r.Name(), plain, wrapped, append([]reflect.Type{
				iface[pipeline.BatchScorer](), iface[pipeline.Modeler](), iface[pipeline.DocAttributor]()}, instr...)...)

			sameInterfaces(t, det.Name(), det, wrapDetector(det, c), append([]reflect.Type{
				iface[labeledPrimer](), iface[unlabeledPrimer]()}, instr...)...)
		}
	}
	o := &pipeline.ExtractorOracle{Ex: adaptiverank.BuiltinExtractor(rel)}
	sameInterfaces(t, "oracle", o, wrapOracle(o, c), iface[pipeline.ContextOracle](), instr[0], instr[1])
}

// TestTracedRunMatchesRun pins the traced run's hand-copied wiring to
// adaptiverank.Run: for every ranker and detector the outputs agree, and
// every wrapped layer was actually called.
func TestTracedRunMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline eight times")
	}
	coll, err := adaptiverank.GenerateCorpus(3, 2500)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rankers {
		for _, d := range detects {
			w := workload{name: "test", strategy: s, detector: d}
			res, err := adaptiverank.Run(coll, adaptiverank.BuiltinExtractor(rel), w.options())
			if err != nil {
				t.Fatal(err)
			}
			c := newLayerClock(time.Time{}, coll.Len())
			tres, _, _, err := w.tracedPipeline(coll, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, det := w.newLearners(coll.Len())
			name := r.Name() + "/" + det.Name()
			if got, want := digest(tres.Order, tres.Tuples, len(tres.UpdatePositions)),
				digest(res.Order, res.Tuples, res.Updates); got != want {
				t.Errorf("%s: traced digest %s, Run digest %s", name, got, want)
			}
			if got, want := c.calls[layerExtract], int64(res.DocsProcessed); got != want {
				t.Errorf("%s: %d extractions timed, %d documents processed", name, got, want)
			}
			if got, want := c.calls[layerObserve], int64(len(res.Order)); got != want {
				t.Errorf("%s: %d observations timed, %d ranked documents", name, got, want)
			}
			if got, want := c.calls[layerReset], int64(res.Updates); got != want {
				t.Errorf("%s: %d resets timed, %d updates", name, got, want)
			}
			if c.calls[layerLearn] == 0 || c.rankDocs == 0 || c.rankWall <= 0 {
				t.Errorf("%s: learn %d calls, rank pass %d docs in %v", name, c.calls[layerLearn], c.rankDocs, c.rankWall)
			}
			_, labeled := det.(labeledPrimer)
			_, unlabeled := det.(unlabeledPrimer)
			if primes := labeled || unlabeled; (c.calls[layerPrime] == 1) != primes {
				t.Errorf("%s: %d primes timed, detector primes: %v", name, c.calls[layerPrime], primes)
			}
		}
	}
}
