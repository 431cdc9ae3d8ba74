package ranking_test

// Allocation-budget tests: the scoring fast paths must allocate nothing
// in steady state. testing.AllocsPerRun runs the function once as a
// warm-up before measuring, which absorbs any one-time buffer growth; an
// explicit warm call keeps that contract visible anyway. A non-zero
// budget here means the zero-alloc hot path regressed — the
// same property cmd/benchgate gates in CI from the committed
// BENCH_scoring.json trajectory.

import (
	"math/rand"
	"testing"

	"adaptiverank/internal/ranking"
	"adaptiverank/internal/vector"
)

// allocDocs builds a small seeded corpus of normalized sparse vectors
// (the bench_test.go benchDocs shape at test scale).
func allocDocs(n int) []vector.Sparse {
	rng := rand.New(rand.NewSource(1))
	out := make([]vector.Sparse, n)
	for i := range out {
		m := make(map[int32]float64)
		for k := 0; k < 80; k++ {
			m[int32(rng.Intn(20000))] = 1
		}
		out[i] = vector.FromCounts(m).Normalize()
	}
	return out
}

func trainRanker(r ranking.Ranker, docs []vector.Sparse) {
	for i := 0; i < 500; i++ {
		r.Learn(docs[i%len(docs)], i%7 == 0)
	}
}

// assertZeroAllocs measures f's steady-state allocation rate after one
// warm call.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm: grows any lazily sized buffers
	if n := testing.AllocsPerRun(1000, f); n != 0 {
		t.Errorf("%s allocates %.3f times per run in steady state, want 0", name, n)
	}
}

func TestScoringAllocBudgets(t *testing.T) {
	docs := allocDocs(64)
	packed := make([]vector.Packed, len(docs))
	for i, d := range docs {
		packed[i] = d.Packed()
	}
	out := make([]float64, len(packed))

	rsvm := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 1})
	trainRanker(rsvm, docs)
	bagg := ranking.NewBAggIE(ranking.BAggOptions{})
	trainRanker(bagg, docs)

	i := 0
	assertZeroAllocs(t, "RSVMIE.ScorePacked", func() {
		rsvm.ScorePacked(packed[i%len(packed)])
		i++
	})
	assertZeroAllocs(t, "RSVMIE.ScoreBatch", func() {
		rsvm.ScoreBatch(packed, out)
	})
	assertZeroAllocs(t, "BAggIE.ScorePacked", func() {
		bagg.ScorePacked(packed[i%len(packed)])
		i++
	})
	assertZeroAllocs(t, "BAggIE.ScoreBatch", func() {
		bagg.ScoreBatch(packed, out)
	})

	// Score forwards to ScorePacked over the Sparse vector's packed view;
	// pinning it keeps that entry point allocation-free too.
	assertZeroAllocs(t, "RSVMIE.Score", func() {
		rsvm.Score(docs[i%len(docs)])
		i++
	})
	assertZeroAllocs(t, "BAggIE.Score", func() {
		bagg.Score(docs[i%len(docs)])
		i++
	})
}

// TestMarginPackedAllocBudget pins the Weights margin fold at zero
// steady-state allocations, including across a mutation: the fold reads
// the dense weight slice directly, so a mutation leaves nothing to
// rebuild.
func TestMarginPackedAllocBudget(t *testing.T) {
	docs := allocDocs(64)
	w := vector.NewWeights()
	for i, d := range docs {
		w.AddSparse(0.1*float64(i%5), d)
	}
	x := docs[0].Packed()
	assertZeroAllocs(t, "Weights.MarginPacked", func() {
		w.MarginPacked(x, 0.5)
	})

	// Mutate without growing the support: the slice is rescaled in
	// place, so the next margin reads it as is.
	w.Scale(0.99)
	w.MarginPacked(x, 0)
	assertZeroAllocs(t, "Weights.MarginPacked after mutation", func() {
		w.MarginPacked(x, 0)
	})
}
