package ranking

import (
	"adaptiverank/internal/corpus"
	"adaptiverank/internal/vector"
)

// PackedScorer is the zero-allocation scoring path. Rankers that
// implement it score vector.Packed document views with no per-call
// allocation; the pipeline's score workers detect it by type assertion
// to batch-score, and fall back to Ranker.Score otherwise (RandomRanker,
// for one, has no linear model).
//
// Contract: ScorePacked(x) returns bitwise the same float64 as Score on
// the Sparse vector x views — for both learned rankers Score is a
// one-line forward to ScorePacked, so the pipeline's byte-identical-output
// and worker-count-invariance guarantees hold whichever entry point
// scored a document (e.g. after a batch panic fallback).
type PackedScorer interface {
	// ScorePacked predicts the usefulness of one packed document vector.
	ScorePacked(x vector.Packed) float64
	// ScoreBatch scores xs[i] into out[i] for every i; len(out) must be
	// at least len(xs). It performs no per-document allocation: callers
	// own and reuse both slices across batches.
	ScoreBatch(xs []vector.Packed, out []float64)
}

// ScorePacked implements PackedScorer: the RankSVM linear score w·x.
func (r *RSVMIE) ScorePacked(x vector.Packed) float64 { return r.model.MarginPacked(x) }

// ScoreBatch implements PackedScorer.
func (r *RSVMIE) ScoreBatch(xs []vector.Packed, out []float64) {
	for k, x := range xs {
		out[k] = r.ScorePacked(x)
	}
}

// ScorePacked implements PackedScorer: the sum of the members' logistic
// scores, accumulated in member order.
func (b *BAggIE) ScorePacked(x vector.Packed) float64 {
	var s float64
	for _, m := range b.members {
		s += m.ProbPacked(x)
	}
	return s
}

// ScoreBatch implements PackedScorer.
func (b *BAggIE) ScoreBatch(xs []vector.Packed, out []float64) {
	for k, x := range xs {
		out[k] = b.ScorePacked(x)
	}
}

// FeaturesPacked returns a zero-copy packed view of d's cached feature
// vector. The view shares the immutable cached storage: callers must
// treat it as read-only (see vector.Packed).
func (f *Featurizer) FeaturesPacked(d *corpus.Document) vector.Packed {
	return f.Features(d).Packed()
}
