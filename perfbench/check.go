package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"adaptiverank"
	"adaptiverank/internal/sampling"
)

// sampleSize is adaptiverank.Run's default initial sample size.
func sampleSize(n int) int {
	s := 500
	if tenth := n / 10; tenth < s {
		s = tenth
	}
	if s < 1 {
		s = 1
	}
	return s
}

// digest fingerprints a run's outputs: the ranked order, the tuples in
// discovery order, and the number of model updates. Feature ids and
// model weights are deliberately left out (see README.md, "Known
// non-determinism").
func digest(order []adaptiverank.DocID, tuples []adaptiverank.Tuple, updates int) string {
	h := sha256.New()
	var b [8]byte
	for _, id := range order {
		binary.LittleEndian.PutUint32(b[:4], uint32(id))
		h.Write(b[:4])
	}
	for _, t := range tuples {
		fmt.Fprintf(h, "|%d\x00%s\x00%s", t.Rel, t.Arg1, t.Arg2)
	}
	binary.LittleEndian.PutUint64(b[:], uint64(updates))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// check verifies one completed run over cc against the labelled
// collection, and that it reproduces the corpus's first digest.
func (cc *corpusCase) check(coll *adaptiverank.Collection, order []adaptiverank.DocID, tuples []adaptiverank.Tuple,
	updates, docsProcessed int, skipped []adaptiverank.DocID, interrupted bool) error {
	n := coll.Len()
	if interrupted {
		return fmt.Errorf("run interrupted")
	}
	if docsProcessed+len(skipped) != n {
		return fmt.Errorf("processed %d + skipped %d != collection %d", docsProcessed, len(skipped), n)
	}
	sample := sampling.SRS(coll, sampleSize(n), runSeed)
	seen := make([]bool, n)
	for _, d := range sample {
		seen[d.ID] = true
	}
	for _, id := range order {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("order holds unknown document %d", id)
		}
		if seen[id] {
			return fmt.Errorf("document %d processed twice", id)
		}
		seen[id] = true
	}
	if len(sample)+len(order) != docsProcessed {
		return fmt.Errorf("sample %d + order %d != processed %d", len(sample), len(order), docsProcessed)
	}

	// The pipeline collects distinct tuples in discovery order: the
	// sample first, then the ranked phase.
	var want []adaptiverank.Tuple
	distinct := make(map[adaptiverank.Tuple]bool)
	add := func(id adaptiverank.DocID) {
		for _, t := range cc.tuples[id] {
			if !distinct[t] {
				distinct[t] = true
				want = append(want, t)
			}
		}
	}
	for _, d := range sample {
		add(d.ID)
	}
	for _, id := range order {
		add(id)
	}
	if len(tuples) != len(want) {
		return fmt.Errorf("%d tuples, labelled collection yields %d", len(tuples), len(want))
	}
	for i := range want {
		if tuples[i] != want[i] {
			return fmt.Errorf("tuple %d is %v, labelled collection yields %v", i, tuples[i], want[i])
		}
	}

	d := digest(order, tuples, updates)
	if cc.digest == "" {
		cc.digest = d
	} else if d != cc.digest {
		return fmt.Errorf("digest %s differs from the corpus's first run %s", d, cc.digest)
	}
	return nil
}
