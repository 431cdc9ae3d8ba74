package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptiverank"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
	"adaptiverank/internal/relation"
)

// Fixed configuration shared by every workload. Only the corpora vary
// with --seed; the pipeline seed stays at runSeed so that a change in a
// figure comes from the code, never from a different sample draw.
const (
	corpusDocs = 5000
	runSeed    = 5
	rel        = relation.PH
	// recallTarget is the recall level whose arrival time and document
	// count are reported (time_to_90_recall_s, docs_to_90_recall).
	recallTarget = 0.9
	// profCPUWindow is the CLI's -prof-cpu-window default.
	profCPUWindow = 10 * time.Second
)

// workload is one benchmark configuration: a ranker, a detector, and
// whether every production observability sink is armed around the run.
// Figures vary more between corpora than between runs over one corpus,
// so each invocation measures several corpora and averages over them;
// the armed runs take three times as long, so that workload has fewer.
type workload struct {
	name     string
	strategy adaptiverank.Strategy
	detector adaptiverank.Detector
	armed    bool
	corpora  int
}

var workloads = []workload{
	{name: "rsvm-modc", strategy: adaptiverank.RSVMIE, detector: adaptiverank.ModC, corpora: 8},
	{name: "bagg-topk", strategy: adaptiverank.BAggIE, detector: adaptiverank.TopK, corpora: 8},
	{name: "rsvm-modc-armed", strategy: adaptiverank.RSVMIE, detector: adaptiverank.ModC, armed: true, corpora: 6},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// procs is the parallelism of both GOMAXPROCS and Options.Workers: the
// machine's CPU count, capped at 2 so that figures from larger machines
// stay comparable with the recorded baseline.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// options returns the adaptiverank.Options every timed run of w uses
// (sinks excluded; see armSinks).
func (w workload) options() adaptiverank.Options {
	return adaptiverank.Options{Strategy: w.strategy, Detector: w.detector, Seed: runSeed, Workers: procs()}
}

// corpusCase is one generated corpus with its full-collection labels:
// the ground truth every run over it is checked against. Only the labels
// are kept; each run regenerates the documents (see fresh), so that the
// benchmark's own memory does not grow with the number of corpora.
type corpusCase struct {
	seed     int64
	checksum uint64
	tuples   [][]adaptiverank.Tuple // by DocID: what the extractor yields
	useful   int
	// digest is the output digest of the first run over this corpus;
	// every later run, timed or traced, must reproduce it.
	digest string
}

// maxCorpora bounds the corpora of one invocation; corpus seeds of
// different --seed values never overlap below it.
const maxCorpora = 64

// setup generates and labels the invocation's corpora. It returns the
// wall time of each corpus set-up; the extractor build happens inside
// the first one.
func (w workload) setup(seed int64) ([]*corpusCase, []float64, error) {
	ex := adaptiverank.BuiltinExtractor(rel)
	cases := make([]*corpusCase, 0, w.corpora)
	times := make([]float64, 0, w.corpora)
	for k := 0; k < w.corpora; k++ {
		t0 := time.Now()
		cs := seed*maxCorpora + int64(k) + 1
		coll, err := adaptiverank.GenerateCorpus(cs, corpusDocs)
		if err != nil {
			return nil, nil, err
		}
		cc := &corpusCase{seed: cs, checksum: coll.Checksum(), tuples: make([][]adaptiverank.Tuple, coll.Len())}
		for _, d := range coll.Docs() {
			ts := ex.Extract(d)
			cc.tuples[d.ID] = ts
			if len(ts) > 0 {
				cc.useful++
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if cc.useful == 0 {
			return nil, nil, fmt.Errorf("corpus seed %d has no useful documents", cs)
		}
		cases = append(cases, cc)
	}
	return cases, times, nil
}

// fresh regenerates the corpus as new, never-tokenized documents, so
// each run pays tokenization as a run over a new collection would.
func (cc *corpusCase) fresh() (*adaptiverank.Collection, error) {
	coll, err := adaptiverank.GenerateCorpus(cc.seed, len(cc.tuples))
	if err != nil {
		return nil, err
	}
	if coll.Checksum() != cc.checksum {
		return nil, fmt.Errorf("corpus seed %d regenerated differently", cc.seed)
	}
	return coll, nil
}

// target is the number of useful documents that makes recallTarget.
func (cc *corpusCase) target() int {
	n := int(recallTarget*float64(cc.useful) + 0.999999)
	if n < 1 {
		n = 1
	}
	return n
}

// sinks are the observability and durability artifacts a production
// user arms, at the adaptiverank CLI's defaults: JSONL trace, metrics
// registry, blackbox, explain artifact, phase profiler, and checkpoint
// journal, all written under one directory per run.
type sinks struct {
	dir         string
	fingerprint string // the run configuration's, as the journal binds to
	reg         *obs.Registry
	rec         obs.Recorder
	trace       *obs.FileRecorder
	explainer   *explain.Explainer
	profiler    *prof.Profiler
	journal     string
}

func armSinks(dir, fingerprint string) (*sinks, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &sinks{dir: dir, fingerprint: fingerprint, reg: obs.NewRegistry(), journal: filepath.Join(dir, "run.ckpt")}
	var err error
	if s.trace, err = obs.CreateTrace(filepath.Join(dir, "trace.jsonl")); err != nil {
		return nil, err
	}
	box, err := blackbox.New(blackbox.Options{
		Dir: filepath.Join(dir, "blackbox"), RunID: "perfbench", Fingerprint: fingerprint, Registry: s.reg,
	})
	if err != nil {
		return nil, s.closeAfter(err)
	}
	s.explainer, err = explain.New(explain.Options{
		Dir: filepath.Join(dir, "explain"), RunID: "perfbench", Fingerprint: fingerprint, Registry: s.reg,
	})
	if err != nil {
		return nil, s.closeAfter(err)
	}
	s.profiler, err = prof.Start(prof.Options{
		Dir: filepath.Join(dir, "prof"), RunID: "perfbench", Fingerprint: fingerprint,
		CPUWindow: profCPUWindow, Registry: s.reg,
	})
	if err != nil {
		return nil, s.closeAfter(err)
	}
	s.rec = obs.Tee(s.trace, box, s.explainer.Recorder(), s.profiler.Recorder())
	return s, nil
}

// closeAfter closes what armSinks opened before failing with err.
func (s *sinks) closeAfter(err error) error {
	_ = s.close() // the set-up error is the one to report
	return err
}

// close stops the profiler and flushes the explain artifact and the
// trace, in the CLI's order.
func (s *sinks) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.profiler != nil {
		keep(s.profiler.Close())
	}
	if s.explainer != nil {
		keep(s.explainer.Close())
	}
	if s.trace != nil {
		keep(s.trace.Close())
	}
	return first
}

// check verifies the closed artifacts: the trace parses and ends with
// run-finished, and the journal and explain artifacts are non-empty.
func (s *sinks) check() error {
	f, err := os.Open(filepath.Join(s.dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	events, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != obs.KindRunFinished {
		return fmt.Errorf("trace does not end with %s", obs.KindRunFinished)
	}
	for _, p := range []string{s.journal, filepath.Join(s.dir, "explain", explain.LogName)} {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		if st.Size() == 0 {
			return fmt.Errorf("%s is empty", filepath.Base(p))
		}
	}
	return nil
}

// finish closes the sinks, checks their artifacts after a successful
// run, measures what the run left on disk, and removes it. A run error
// takes precedence over the sinks' own.
func (s *sinks) finish(runErr error) (bytes int64, files int, err error) {
	err = s.close()
	if runErr == nil && err == nil {
		err = s.check()
	}
	if err == nil {
		bytes, files, err = s.usage()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	if runErr != nil {
		err = runErr
	}
	return bytes, files, err
}

// usage totals the regular files and bytes the run left under dir.
func (s *sinks) usage() (bytes int64, files int, err error) {
	err = filepath.Walk(s.dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			bytes += fi.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}
