package update

import (
	"math"
	"math/rand"
	"testing"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// TestTopKCacheMatchesRecompute checks Top-K's lazily cached distance
// and evidence against a recompute on every call. The stream mixes
// useful and useless documents, holds long all-negative runs (the side
// classifier does not step there), shifts its feature distribution so
// the detector fires, and resets after every fire.
func TestTopKCacheMatchesRecompute(t *testing.T) {
	tk := NewTopK(TopKOptions{K: 20, Tau: 0.2})
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	tk.Instrument(reg, rec)
	r := rand.New(rand.NewSource(7))
	mk := func(base int) vector.Sparse {
		return feats(base+r.Intn(8), 1+r.Intn(3), base+8+r.Intn(8), 1, 200+r.Intn(40), 1)
	}
	var xs []vector.Sparse
	var ys []bool
	for i := 0; i < 100; i++ {
		xs = append(xs, mk(0))
		ys = append(ys, i%3 == 0)
	}
	tk.Prime(xs, ys)

	const n = 4000
	fires, steps := 0, 0
	var wants []obs.Event
	for i := 0; i < n; i++ {
		// Every 200 documents, 120 are useless in a row; the rest are
		// useful with probability 0.2. The distribution shifts every 500.
		useful := i%200 >= 120 && r.Float64() < 0.2
		x := mk(i / 500 * 30)
		before := tk.side.Steps()
		fired := tk.Observe(x, useful)
		if tk.side.Steps() != before {
			steps++
		}

		cur := tk.side.Weights().TopK(tk.K)
		want := Footrule(tk.ref, cur)
		if math.Float64bits(tk.LastDistance) != math.Float64bits(want) {
			t.Fatalf("doc %d: cached distance %v, recomputed %v", i, tk.LastDistance, want)
		}
		if fired != (want > tk.Tau) {
			t.Fatalf("doc %d: fired %v, recomputed distance %v against tau %v", i, fired, want, tk.Tau)
		}
		entered, left, displaced := topKEvidence(tk.ref, cur)
		wants = append(wants, obs.Event{Kind: obs.KindDetectorDecision, Name: tk.Name(),
			Val: want, Fired: fired, Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: tk.Tau},
				{Key: obs.EvidenceK, Num: float64(tk.K)},
				{Key: obs.EvidenceEntered, Num: float64(entered)},
				{Key: obs.EvidenceLeft, Num: float64(left)},
				{Key: obs.EvidenceDisplaced, Str: displaced},
			}})
		if fired {
			fires++
			tk.Reset()
		}
	}
	evs := rec.Events()
	if len(evs) != n {
		t.Fatalf("%d decision events, want one per call (%d)", len(evs), n)
	}
	for i, ev := range evs {
		w := wants[i]
		if ev.Kind != w.Kind || ev.Name != w.Name || ev.Fired != w.Fired ||
			math.Float64bits(ev.Val) != math.Float64bits(w.Val) || len(ev.Attrs) != len(w.Attrs) {
			t.Fatalf("doc %d: event %+v, recompute gives %+v", i, ev, w)
		}
		for j := range w.Attrs {
			if ev.Attrs[j] != w.Attrs[j] {
				t.Fatalf("doc %d: attr %d = %+v, recompute gives %+v", i, j, ev.Attrs[j], w.Attrs[j])
			}
		}
	}
	if got := reg.Histogram(obs.MetricUpdateTopKFootrule, FootruleBuckets()).Count(); got != n {
		t.Errorf("footrule histogram has %d observations, want %d", got, n)
	}
	// The stream must exercise both the cached path and the reset path.
	t.Logf("%d fires, %d stepping calls of %d", fires, steps, n)
	if fires < 3 || steps == 0 || steps > n/4 {
		t.Fatalf("stream exercised %d fires and %d stepping calls of %d; want >= 3 fires and few steps", fires, steps, n)
	}
}

// TestTopKObserveWithoutStepAllocatesNothing pins the cached path: an
// Observe that leaves the side classifier unchanged, with no recorder,
// reuses the cached distance instead of re-sorting the weights.
func TestTopKObserveWithoutStepAllocatesNothing(t *testing.T) {
	tk := NewTopK(TopKOptions{K: 10})
	tk.Instrument(obs.NewRegistry(), nil)
	var xs []vector.Sparse
	var ys []bool
	for i := 0; i < 50; i++ {
		xs = append(xs, feats(i%7, 1, 10+i%5, 2))
		ys = append(ys, i%2 == 0)
	}
	tk.Prime(xs, ys)
	x := feats(3, 1)
	tk.Observe(x, false)
	// Appends to the useless-document queue grow its backing array a
	// few times over the runs; amortized, that rounds to zero.
	if allocs := testing.AllocsPerRun(1000, func() { tk.Observe(x, false) }); allocs != 0 {
		t.Errorf("Observe without a side-model step allocates %v times per call, want 0", allocs)
	}
}
