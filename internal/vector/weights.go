package vector

import (
	"cmp"
	"math"
	"slices"
)

// Weights is a mutable linear-model weight vector stored densely: a
// []float64 indexed by feature id, grown on demand, plus a count of its
// non-zero slots. Feature ids are interned densely from 0 by
// tokenize.Vocab, so the slice is as long as the largest id the model has
// touched, every read is one array load, and every fold (norms, cosine,
// drift, top-k) runs in ascending index order by construction — the
// run-to-run determinism the detector statistics and explain artifacts
// depend on, with no sort.
//
// Invariants, held by every method:
//   - a slot whose weight is removed holds +0, never -0, so At returns
//     the same bits for an absent feature however it became absent;
//   - nnz equals the number of non-zero slots;
//   - indices at or beyond the slice length read as 0.
//
// Concurrency: mutation (Set/Add/Scale/AddSparse/Shrink) is
// single-threaded. Reads (Dot, MarginPacked, ...) are plain slice loads:
// safe concurrently with each other (the pipeline's score workers do
// this), never concurrently with a mutation.
type Weights struct {
	w   []float64
	nnz int
}

// NewWeights returns an empty weight vector.
func NewWeights() *Weights { return &Weights{} }

// Clone returns a deep copy of w.
func (w *Weights) Clone() *Weights {
	return &Weights{w: slices.Clone(w.w), nnz: w.nnz}
}

// At returns the weight of feature i (0 when absent).
func (w *Weights) At(i int32) float64 {
	if j := uint(i); j < uint(len(w.w)) {
		return w.w[j]
	}
	return 0
}

// Set assigns the weight of feature i; setting 0 removes the feature so
// that the model stays sparse (the basis of in-training feature
// selection). The slice grows to cover i when v is non-zero.
func (w *Weights) Set(i int32, v float64) {
	if int(i) >= len(w.w) {
		if v == 0 {
			return
		}
		w.w = append(w.w, make([]float64, int(i)+1-len(w.w))...)
	}
	old := w.w[i]
	if v == 0 {
		if old != 0 {
			w.nnz--
		}
		w.w[i] = 0 // +0 even when v is -0
		return
	}
	if old == 0 {
		w.nnz++
	}
	w.w[i] = v
}

// Add accumulates v into feature i.
func (w *Weights) Add(i int32, v float64) { w.Set(i, w.At(i)+v) }

// NNZ reports the number of features with non-zero weight.
func (w *Weights) NNZ() int { return w.nnz }

// Scale multiplies every weight by a. Scaling by 0 clears the vector.
func (w *Weights) Scale(a float64) {
	if a == 1 {
		return
	}
	if a == 0 {
		w.w, w.nnz = w.w[:0], 0
		return
	}
	d := w.w
	for i, v := range d {
		if v == 0 {
			continue // 0·a would be -0 for negative a
		}
		if nv := v * a; nv != 0 {
			d[i] = nv
		} else { // underflow
			d[i] = 0
			w.nnz--
		}
	}
}

// Shrink applies the proximal elastic-net step
// w_i <- sign(w_i)·max(0, |w_i|·decay − thresh) to every non-zero weight
// in one sequential sweep: the multiplicative decay is the L2 part, the
// soft threshold the L1 part, and weights that cross zero are removed.
func (w *Weights) Shrink(decay, thresh float64) {
	if decay == 1 && thresh == 0 {
		return
	}
	d := w.w
	for i, v := range d {
		if v == 0 {
			continue
		}
		nv := math.Abs(v)*decay - thresh
		if nv <= 0 {
			d[i] = 0
			w.nnz--
			continue
		}
		if v < 0 {
			nv = -nv
		}
		d[i] = nv
	}
}

// AddSparse accumulates a*x into w.
func (w *Weights) AddSparse(a float64, x Sparse) {
	if a == 0 {
		return
	}
	for k, i := range x.idx {
		w.Add(i, a*x.val[k])
	}
}

// Dot returns the inner product of w with a sparse vector.
func (w *Weights) Dot(x Sparse) float64 { return w.MarginPacked(x.Packed(), 0) }

// MarginPacked returns w·x + bias. It is the one margin fold: Dot,
// ContributionsPacked and every ranker's score are this loop. Because x's
// indices are sorted ascending, the loop breaks at the first index beyond
// the weight slice (every later feature is absent from the model too).
// The products of absent features are exact IEEE zeros (their slots hold
// +0), and the running sum can never be −0 (it starts at +0 and
// cancellation yields +0 under round-to-nearest), so the result equals a
// fold over the matching features only, bit for bit.
//
// The unsigned index compare and the re-sliced val let the compiler drop
// both bounds checks, which keeps the loop in registers when it inlines
// into a ranker's ScoreBatch loop.
func (w *Weights) MarginPacked(x Packed, bias float64) float64 {
	d := w.w
	idx := x.Idx
	val := x.Val[:len(idx)]
	var sum float64
	for k, i := range idx {
		j := uint(i)
		if j >= uint(len(d)) {
			break
		}
		sum += d[j] * val[k]
	}
	return sum + bias
}

// L2 returns the Euclidean norm of the weight vector.
func (w *Weights) L2() float64 {
	var sum float64
	for _, v := range w.w {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// L1 returns the L1 norm of the weight vector.
func (w *Weights) L1() float64 {
	var sum float64
	for _, v := range w.w {
		sum += math.Abs(v)
	}
	return sum
}

// Cosine returns the cosine similarity between two weight vectors, and 0
// when either is a zero vector. The dot product feeds Mod-C's trigger
// angle; it folds in ascending index order over the shorter slice, and
// the products of absent features are exact zeros that cannot perturb
// the sum.
func (w *Weights) Cosine(o *Weights) float64 {
	nw, no := w.L2(), o.L2()
	if nw == 0 || no == 0 {
		return 0
	}
	a, b := w.w, o.w
	if len(b) < len(a) {
		a, b = b, a
	}
	b = b[:len(a)]
	var dot float64
	for i, u := range a {
		dot += u * b[i]
	}
	return dot / (nw * no)
}

// Range calls f for every non-zero (index, weight) pair in ascending
// index order.
func (w *Weights) Range(f func(i int32, v float64)) {
	for i, v := range w.w {
		if v != 0 {
			f(int32(i), v)
		}
	}
}

// ToSparse snapshots the weight vector as an immutable sparse vector.
func (w *Weights) ToSparse() Sparse {
	idx := make([]int32, 0, w.nnz)
	val := make([]float64, 0, w.nnz)
	for i, v := range w.w {
		if v != 0 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	return Sparse{idx: idx, val: val}
}

// WeightedFeature pairs a feature index with a weight for ranking reports.
type WeightedFeature struct {
	Index  int32
	Weight float64
}

// TopK returns the k features with largest absolute weight, ordered by
// decreasing |weight| with index as tiebreaker for determinism.
func (w *Weights) TopK(k int) []WeightedFeature {
	all := make([]WeightedFeature, 0, w.nnz)
	for i, v := range w.w {
		if v != 0 {
			all = append(all, WeightedFeature{Index: int32(i), Weight: v})
		}
	}
	slices.SortFunc(all, absDescByIndex)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// absDescByIndex orders WeightedFeatures by decreasing |weight| with
// index as tiebreaker — a total order, so the result is deterministic
// under any (even unstable) sort.
func absDescByIndex(a, b WeightedFeature) int {
	av, bv := math.Abs(a.Weight), math.Abs(b.Weight)
	if av != bv {
		if av > bv {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Index, b.Index)
}
