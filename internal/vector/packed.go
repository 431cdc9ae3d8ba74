package vector

// Packed is a read-only view of a Sparse vector's storage: parallel
// index/value slices sorted by strictly increasing feature index, exposed
// directly so the scoring loop (Weights.ContributionsPacked) compiles down
// to a straight slice walk. It shares the immutable Sparse storage (for
// instance the featurizer cache), so callers must not modify Idx or Val.
type Packed struct {
	Idx []int32
	Val []float64
}

// Packed returns a zero-copy read-only view of s.
func (s Sparse) Packed() Packed { return Packed{Idx: s.idx, Val: s.val} }
