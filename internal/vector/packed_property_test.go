package vector

// Fixed-seed property tests pinning the Packed view to the Sparse vector
// it views, and the Weights margin fold to an independent fold over the
// matching features, to within 1e-12 across 1k random vectors, including
// the empty, single-element, and duplicate-index corners. A divergence
// means the zero-alloc scoring path no longer computes the same ranking
// as the representation every parity oracle is written against.

import (
	"math"
	"math/rand"
	"testing"
)

const packedTrials = 1000

// packedTolerance is the satellite budget: the fast path replicates the
// Sparse arithmetic order, so in practice deltas are exactly zero and the
// bound only absorbs benign compiler-level reassociation.
const packedTolerance = 1e-12

func packedEq(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= packedTolerance*scale
}

// packedCase draws one input vector: mostly random sparse vectors (with
// duplicate indices folded by NewSparse), plus forced empty,
// single-element, and heavily duplicated-index corners early in the
// trial sequence so they always run.
func packedCase(t *testing.T, rng *rand.Rand, trial int) Sparse {
	t.Helper()
	switch trial {
	case 0:
		return Sparse{} // empty
	case 1:
		return NewSparse([]int32{7}, []float64{3.5}) // single element
	case 2:
		// Duplicate indices: NewSparse folds them; the packed view must
		// see the folded result.
		return NewSparse([]int32{4, 4, 4, 9, 9}, []float64{1, 2, -3, 0.5, 0.25})
	case 3:
		// Duplicates that cancel to zero exactly drop out entirely.
		return NewSparse([]int32{2, 2, 5}, []float64{1, -1, 2})
	}
	return randSparse(rng, 40, 128)
}

func TestPropertyPackedMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < packedTrials; trial++ {
		s := packedCase(t, rng, trial)
		p := s.Packed()

		// The view is exact: same entries, same order.
		if len(p.Idx) != s.NNZ() || len(p.Val) != s.NNZ() {
			t.Fatalf("trial %d: Packed has %d/%d entries, Sparse %d",
				trial, len(p.Idx), len(p.Val), s.NNZ())
		}
		k := 0
		s.Range(func(i int32, v float64) {
			if p.Idx[k] != i || p.Val[k] != v {
				t.Fatalf("trial %d: Packed entry %d = (%d, %g), Sparse (%d, %g)",
					trial, k, p.Idx[k], p.Val[k], i, v)
			}
			k++
		})
	}
}

// TestPropertyMarginPackedMatchesDot pins the margin fold to Dot and,
// bitwise, to an independent fold over only the features present in both
// the model and the document, across random models and documents through
// mutation cycles (growth, scaling, clearing).
func TestPropertyMarginPackedMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	w := NewWeights()
	for trial := 0; trial < packedTrials; trial++ {
		// Mutate the model a little each trial, including shrinks back
		// to empty.
		switch rng.Intn(5) {
		case 0:
			w.Scale(0)
		case 1:
			w.Scale(float64(rng.Intn(3)))
		default:
			w.AddSparse(rng.NormFloat64(), randSparse(rng, 20, 256))
		}
		x := packedCase(t, rng, trial)
		got := w.MarginPacked(x.Packed(), 0)
		want := w.Dot(x)
		if got != want && !packedEq(got, want) {
			t.Fatalf("trial %d: MarginPacked %g != Dot %g (support %d)",
				trial, got, want, w.NNZ())
		}
		// The zero products of absent features cannot perturb the sum.
		var matched float64
		x.Range(func(i int32, v float64) {
			if wi := w.At(i); wi != 0 {
				matched += wi * v
			}
		})
		if math.Float64bits(got) != math.Float64bits(matched) {
			t.Fatalf("trial %d: MarginPacked %g != matched-feature fold %g (bits differ)",
				trial, got, matched)
		}
		bias := rng.NormFloat64()
		if got, want := w.MarginPacked(x.Packed(), bias), w.Dot(x)+bias; !packedEq(got, want) {
			t.Fatalf("trial %d: biased margin %g != %g", trial, got, want)
		}
		// A second call with no interleaved mutation must return the
		// identical bits.
		if again := w.MarginPacked(x.Packed(), 0); again != got {
			t.Fatalf("trial %d: repeated margin %g != first call %g", trial, again, got)
		}
	}
}
