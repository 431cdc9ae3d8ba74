package pipeline

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
)

// labelProbe is a Strategy that, on the first call of each hook, keeps
// the goroutine-profile stanza of its own stack — the one stanza that
// holds the profile writer — with the pprof labels printed above it.
type labelProbe struct {
	mu      sync.Mutex
	stanzas map[string]string
}

func (p *labelProbe) capture(method string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.stanzas[method]; ok {
		return
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		p.stanzas[method] = err.Error()
		return
	}
	for _, st := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(st, "runtime/pprof.(*Profile).WriteTo") {
			p.stanzas[method] = st
		}
	}
}

func (p *labelProbe) Name() string                     { return "label-probe" }
func (p *labelProbe) Init([]LabeledDoc)                { p.capture("Init") }
func (p *labelProbe) Update([]LabeledDoc)              { p.capture("Update") }
func (p *labelProbe) Observe(LabeledDoc) bool          { p.capture("Observe"); return false }
func (p *labelProbe) Score(d *corpus.Document) float64 { p.capture("Score"); return float64(d.ID % 7) }

// TestPhaseLabelsReachStrategy checks that the pprof phase label is set
// on every goroutine that runs a strategy hook: Init under train-init,
// Score on the rank workers under rank, Update under train-update, and
// Observe — in the document loop, outside any named phase — under
// extract. It reads goroutine profiles, so no CPU sampling is involved.
func TestPhaseLabelsReachStrategy(t *testing.T) {
	env := newTestEnv(t, 31)
	probe := &labelProbe{stanzas: map[string]string{}}
	if _, err := Run(Options{
		Rel: relation.PH, Coll: env.coll, Labels: env.labels, Sample: env.sample,
		Strategy: probe, Detector: update.NewWindF(100), Workers: 4,
	}); err != nil {
		t.Fatal(err)
	}
	for method, phase := range map[string]string{
		"Init":    obs.SpanTrainInit,
		"Score":   obs.SpanRank,
		"Update":  obs.SpanTrainUpdate,
		"Observe": obs.ProfPhaseExtract,
	} {
		st, ok := probe.stanzas[method]
		if !ok {
			t.Errorf("%s was never called", method)
			continue
		}
		if !strings.Contains(st, "pipeline.(*labelProbe)."+method) {
			t.Errorf("%s: captured stanza is not the probe's own stack:\n%s", method, st)
		}
		want := fmt.Sprintf("# labels: {%q:%q}\n", obs.LabelPhase, phase)
		if !strings.Contains(st, want) {
			t.Errorf("%s: stack not under %q:\n%s", method, strings.TrimSpace(want), st)
		}
	}
	// With Workers > 1 and a pool past the sequential cutoff, Score runs
	// on worker goroutines, which inherit the label from the rank phase.
	if strings.Contains(probe.stanzas["Score"], "pipeline.RunContext") {
		t.Errorf("Score ran on the RunContext goroutine, not a rank worker:\n%s", probe.stanzas["Score"])
	}
}
