package vector

// Randomized property tests over the sparse linear-algebra invariants the
// learners depend on: dot-product commutativity, scaling linearity,
// subtraction/cancellation, normalization, duplicate folding, and the
// Weights/Sparse correspondence. A fixed seed keeps the suite
// deterministic across runs.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

const propertyTrials = 200

// randSparse draws a sparse vector with up to maxNNZ entries over a
// feature space of width; duplicate indices are allowed on purpose so
// NewSparse's folding path is exercised.
func randSparse(rng *rand.Rand, maxNNZ int, width int32) Sparse {
	n := rng.Intn(maxNNZ + 1)
	idx := make([]int32, n)
	val := make([]float64, n)
	for k := 0; k < n; k++ {
		idx[k] = rng.Int31n(width)
		val[k] = rng.NormFloat64()
	}
	return NewSparse(idx, val)
}

func approxEq(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

func TestPropertySparseInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < propertyTrials; trial++ {
		s := randSparse(rng, 30, 64)
		u := randSparse(rng, 30, 64)
		a := rng.NormFloat64()

		// Sortedness and no stored zeros.
		s.Range(func(i int32, v float64) {
			if v == 0 {
				t.Fatalf("trial %d: stored zero at %d in %v", trial, i, s)
			}
		})
		for k := 1; k < s.NNZ(); k++ {
			if s.At(s.idx[k-1]) == 0 || s.idx[k-1] >= s.idx[k] {
				t.Fatalf("trial %d: indices not strictly increasing: %v", trial, s)
			}
		}

		// Dot commutativity and Cauchy–Schwarz.
		if d1, d2 := s.Dot(u), u.Dot(s); d1 != d2 {
			t.Fatalf("trial %d: dot not commutative: %g vs %g", trial, d1, d2)
		}
		if d := math.Abs(s.Dot(u)); d > s.L2()*u.L2()*(1+1e-12)+1e-12 {
			t.Fatalf("trial %d: |s·u| = %g violates Cauchy–Schwarz (%g)",
				trial, d, s.L2()*u.L2())
		}

		// Scaling linearity: (a·s)·u == a·(s·u), ||a·s|| == |a|·||s||.
		if got, want := s.Scale(a).Dot(u), a*s.Dot(u); !approxEq(got, want) {
			t.Fatalf("trial %d: scale linearity: %g != %g", trial, got, want)
		}
		if got, want := s.Scale(a).L2(), math.Abs(a)*s.L2(); !approxEq(got, want) {
			t.Fatalf("trial %d: scale norm: %g != %g", trial, got, want)
		}
		if s.Scale(0).NNZ() != 0 {
			t.Fatalf("trial %d: scaling by 0 must empty the vector", trial)
		}

		// Subtraction: (s-u)·x == s·x - u·x against a probe vector, and
		// self-subtraction cancels to the empty vector.
		x := randSparse(rng, 30, 64)
		if got, want := s.Sub(u).Dot(x), s.Dot(x)-u.Dot(x); !approxEq(got, want) {
			t.Fatalf("trial %d: sub linearity: %g != %g", trial, got, want)
		}
		if d := s.Sub(s); d.NNZ() != 0 {
			t.Fatalf("trial %d: s - s = %v, want empty", trial, d)
		}
		if !s.Sub(Sparse{}).Equal(s) {
			t.Fatalf("trial %d: s - 0 != s", trial)
		}

		// Normalization: unit norm for non-zero vectors, zero unchanged.
		if s.NNZ() > 0 {
			if n := s.Normalize().L2(); !approxEq(n, 1) {
				t.Fatalf("trial %d: normalized L2 = %g", trial, n)
			}
			// Direction is preserved.
			if c := s.Cosine(s.Normalize()); !approxEq(c, 1) {
				t.Fatalf("trial %d: cos(s, normalize(s)) = %g", trial, c)
			}
		}
		var zero Sparse
		if zero.Normalize().NNZ() != 0 || zero.L2() != 0 {
			t.Fatal("zero vector must survive Normalize unchanged")
		}
		if c := s.Cosine(zero); c != 0 {
			t.Fatalf("trial %d: cosine with zero vector = %g", trial, c)
		}
	}
}

func TestPropertyNewSparseFoldsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < propertyTrials; trial++ {
		n := rng.Intn(40)
		idx := make([]int32, n)
		val := make([]float64, n)
		counts := make(map[int32]float64)
		for k := 0; k < n; k++ {
			idx[k] = rng.Int31n(16) // narrow space forces duplicates
			val[k] = float64(rng.Intn(7) - 3)
			counts[idx[k]] += val[k]
		}
		got := NewSparse(idx, val)
		want := FromCounts(counts)
		if !got.Equal(want) {
			t.Fatalf("trial %d: NewSparse %v != FromCounts %v", trial, got, want)
		}
	}
}

func TestPropertyWeightsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const width = 48
	// apply draws one random mutation and applies it to both a Weights
	// vector and its plain dense reference.
	apply := func(w *Weights, dense []float64) {
		switch rng.Intn(6) {
		case 0:
			i := rng.Int31n(width)
			v := float64(rng.Intn(9) - 4)
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1) // Set(i, -0) must leave +0
			}
			w.Set(i, v)
			dense[i] = v
		case 1:
			i := rng.Int31n(width)
			v := float64(rng.Intn(9) - 4)
			w.Add(i, v)
			dense[i] += v
		case 2:
			a := float64(rng.Intn(5) - 2)
			x := randSparse(rng, 10, width)
			w.AddSparse(a, x)
			x.Range(func(i int32, v float64) { dense[i] += a * v })
		case 3:
			a := float64(rng.Intn(4) - 1) // -1, 0, 1 or 2
			w.Scale(a)
			for i := range dense {
				dense[i] *= a
			}
		default:
			decay := []float64{0.5, 0.75, 1}[rng.Intn(3)]
			thresh := []float64{0, 0.5, 1}[rng.Intn(3)]
			w.Shrink(decay, thresh)
			for i, v := range dense {
				nv := math.Abs(v)*decay - thresh
				if nv <= 0 {
					dense[i] = 0
					continue
				}
				if v < 0 {
					nv = -nv
				}
				dense[i] = nv
			}
		}
	}
	// check compares w against its dense reference: entries, the +0
	// invariant, NNZ, norms, and Range order.
	check := func(trial int, name string, w *Weights, dense []float64) {
		nnz := 0
		var l1, l2 float64
		for i, v := range dense {
			got := w.At(int32(i))
			if !approxEq(got, v) {
				t.Fatalf("trial %d: %s.At(%d) = %g, dense %g", trial, name, i, got, v)
			}
			if got == 0 && math.Signbit(got) {
				t.Fatalf("trial %d: %s.At(%d) reads -0", trial, name, i)
			}
			if v != 0 {
				nnz++
			}
			l1 += math.Abs(v)
			l2 += v * v
		}
		// Every op applies the reference's own per-element arithmetic,
		// so zeros are exact and NNZ must agree.
		if w.NNZ() != nnz {
			t.Fatalf("trial %d: %s.NNZ = %d, dense %d", trial, name, w.NNZ(), nnz)
		}
		if !approxEq(w.L1(), l1) || !approxEq(w.L2(), math.Sqrt(l2)) {
			t.Fatalf("trial %d: %s norms L1=%g/%g L2=%g/%g",
				trial, name, w.L1(), l1, w.L2(), math.Sqrt(l2))
		}
		prev, seen := int32(-1), 0
		w.Range(func(i int32, v float64) {
			if v == 0 || i <= prev {
				t.Fatalf("trial %d: %s.Range yielded (%d, %g) after index %d", trial, name, i, v, prev)
			}
			prev = i
			seen++
		})
		if seen != nnz {
			t.Fatalf("trial %d: %s.Range yielded %d entries, want %d", trial, name, seen, nnz)
		}
	}

	for trial := 0; trial < propertyTrials; trial++ {
		// Model a Weights vector against a plain dense reference; a
		// clone taken mid-sequence is mutated independently from then on.
		w := NewWeights()
		dense := make([]float64, width)
		var clone *Weights
		var cloneDense []float64
		for op := 0; op < 60; op++ {
			if op == 30 {
				clone, cloneDense = w.Clone(), slices.Clone(dense)
			}
			apply(w, dense)
			if clone != nil {
				apply(clone, cloneDense)
			}
		}
		check(trial, "w", w, dense)
		check(trial, "clone", clone, cloneDense)

		// Dot against a random probe.
		x := randSparse(rng, 12, width)
		var want float64
		x.Range(func(i int32, v float64) { want += dense[i] * v })
		if got := w.Dot(x); !approxEq(got, want) {
			t.Fatalf("trial %d: Dot = %g, dense %g", trial, got, want)
		}

		// ToSparse round-trips through FromCounts semantics.
		sp := w.ToSparse()
		if sp.NNZ() != w.NNZ() {
			t.Fatalf("trial %d: ToSparse NNZ %d != %d", trial, sp.NNZ(), w.NNZ())
		}
		sp.Range(func(i int32, v float64) {
			if v != w.At(i) {
				t.Fatalf("trial %d: ToSparse[%d] = %g, want %g", trial, i, v, w.At(i))
			}
		})

		// Clone independence.
		c := w.Clone()
		c.Add(0, 1)
		if approxEq(c.At(0), w.At(0)) {
			t.Fatalf("trial %d: Clone shares storage", trial)
		}

		// TopK ordering: decreasing |weight|, index tiebreak, k-bounded.
		top := w.TopK(5)
		if len(top) > 5 || len(top) > w.NNZ() {
			t.Fatalf("trial %d: TopK returned %d entries", trial, len(top))
		}
		for k := 1; k < len(top); k++ {
			pa, pb := math.Abs(top[k-1].Weight), math.Abs(top[k].Weight)
			if pa < pb || (pa == pb && top[k-1].Index >= top[k].Index) {
				t.Fatalf("trial %d: TopK misordered at %d: %v", trial, k, top)
			}
		}

		// Cosine against the reference, symmetry and bounds, with an
		// independent vector.
		o := NewWeights()
		oDense := make([]float64, width)
		ox := randSparse(rng, 12, width)
		o.AddSparse(1, ox)
		ox.Range(func(i int32, v float64) { oDense[i] += v })
		var dot, nw, no float64
		for i := range dense {
			dot += dense[i] * oDense[i]
			nw += dense[i] * dense[i]
			no += oDense[i] * oDense[i]
		}
		var wantCos float64
		if nw != 0 && no != 0 {
			wantCos = dot / (math.Sqrt(nw) * math.Sqrt(no))
		}
		c1, c2 := w.Cosine(o), o.Cosine(w)
		if !approxEq(c1, wantCos) {
			t.Fatalf("trial %d: cosine %g, dense %g", trial, c1, wantCos)
		}
		if !approxEq(c1, c2) {
			t.Fatalf("trial %d: cosine asymmetric: %g vs %g", trial, c1, c2)
		}
		if c1 < -1-1e-12 || c1 > 1+1e-12 {
			t.Fatalf("trial %d: cosine out of range: %g", trial, c1)
		}
	}
}
