package experiments

import (
	"fmt"

	"adaptiverank/internal/metrics"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/relation"
)

// Table1 reproduces Table 1: the relations with their useful-document
// counts on the test split, as determined by actually running each
// extraction system over every document.
func (e *Env) Table1() (*Table, error) {
	e.init()
	t := &Table{
		Title:  "Table 1: relations and useful documents (test split)",
		Header: []string{"Relation", "Useful Documents", "Measured %", "Paper %"},
	}
	for _, rel := range relation.All() {
		labels := e.Labels(rel, e.splits.Test)
		pct := 100 * float64(labels.NumUseful()) / float64(e.splits.Test.Len())
		paper := 100 * rel.Density()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%s)", rel.Name(), rel.Code()),
			fmt.Sprintf("%d", labels.NumUseful()),
			fmt.Sprintf("%.2f%%", pct),
			fmt.Sprintf("%.2f%%", paper),
		})
	}
	t.Notes = append(t.Notes,
		"DO is generated at 10x the paper's density (0.8% vs 0.08%): 0.08% of a laptop-scale corpus would be <10 documents (DESIGN.md §2)")
	return t, nil
}

// qualityCell renders "AP / AUC" mean±std over runs, in percent.
func qualityCell(results []*pipeline.Result) (ap, auc metrics.Stat) {
	aps := make([]float64, len(results))
	aucs := make([]float64, len(results))
	for i, r := range results {
		aps[i] = 100 * r.AP
		aucs[i] = 100 * r.AUC
	}
	return metrics.Aggregate(aps), metrics.Aggregate(aucs)
}

// Table2 reproduces Table 2: average precision and AUC for all relations
// with the base and adaptive versions of RSVM-IE under SRS and CQS
// sampling (dev split, full access).
func (e *Env) Table2() (*Table, error) {
	t := &Table{
		Title: "Table 2: sampling × adaptation with RSVM-IE (dev, full access)",
		Header: []string{"Rel",
			"Base SRS AP", "Base SRS AUC", "Base CQS AP", "Base CQS AUC",
			"Adapt SRS AP", "Adapt SRS AUC", "Adapt CQS AP", "Adapt CQS AUC"},
	}
	for _, rel := range relation.All() {
		row := []string{rel.Code()}
		for _, cfg := range []struct {
			sampling, detector string
		}{
			{"SRS", ""}, {"CQS", ""}, {"SRS", "Mod-C"}, {"CQS", "Mod-C"},
		} {
			results, err := e.RunAll(Spec{
				Rel: rel, Strategy: "RSVM-IE",
				Sampling: cfg.sampling, Detector: cfg.detector,
			})
			if err != nil {
				return nil, err
			}
			ap, auc := qualityCell(results)
			row = append(row, ap.String(), auc.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 reproduces Table 3: average update-detection CPU time per
// processed document, measured over the Figure 8 configuration.
func (e *Env) Table3() (*Table, error) {
	t := &Table{
		Title:  "Table 3: update detection CPU time per document (Election–Winner, RSVM-IE)",
		Header: []string{"Update Technique", "CPU Time per Document", "Paper"},
	}
	paper := map[string]string{
		"Wind-F": "0.01 ms", "Feat-S": "5.72 ms", "Top-K": "1.89 ms", "Mod-C": "0.32 ms",
	}
	for _, det := range []string{"Wind-F", "Feat-S", "Top-K", "Mod-C"} {
		results, err := e.RunAll(Spec{Rel: relation.EW, Strategy: "RSVM-IE", Detector: det})
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, len(results))
		for _, r := range results {
			if r.DetectorObservations > 0 {
				vals = append(vals,
					float64(r.DetectorTime.Microseconds())/1000/float64(r.DetectorObservations))
			}
		}
		s := metrics.Aggregate(vals)
		t.Rows = append(t.Rows, []string{
			det,
			fmt.Sprintf("%.3f±%.3f ms", s.Mean, s.Std),
			paper[det],
		})
	}
	t.Notes = append(t.Notes,
		"absolute times depend on hardware and model size; the paper orders Wind-F < Mod-C < Top-K < Feat-S, "+
			"but its Top-K updates the side classifier on every document, while ours steps it only on balanced "+
			"(useful, useless) pairs and reuses the footrule between steps")
	return t, nil
}

// Table4 reproduces Table 4: the final test-set comparison of BAgg-IE and
// RSVM-IE (best configuration: CQS + Mod-C) against FC and A-FC.
func (e *Env) Table4() (*Table, error) {
	t := &Table{
		Title: "Table 4: final comparison (test, full access)",
		Header: []string{"Rel",
			"BAgg-IE AP", "BAgg-IE AUC", "RSVM-IE AP", "RSVM-IE AUC",
			"FC AP", "FC AUC", "A-FC AP", "A-FC AUC"},
	}
	for _, rel := range relation.All() {
		row := []string{rel.Code()}
		for _, spec := range []Spec{
			{Rel: rel, Strategy: "BAgg-IE", Sampling: "CQS", Detector: "Mod-C", Test: true},
			{Rel: rel, Strategy: "RSVM-IE", Sampling: "CQS", Detector: "Mod-C", Test: true},
			{Rel: rel, Strategy: "FC", Test: true},
			{Rel: rel, Strategy: "A-FC", Test: true},
		} {
			results, err := e.RunAll(spec)
			if err != nil {
				return nil, err
			}
			ap, auc := qualityCell(results)
			row = append(row, ap.String(), auc.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FeatureChurn reproduces the Section 5 feature-turnover analysis: the
// fraction of model features added and removed per adaptation step, early
// (first half of updates) versus late (second half).
func (e *Env) FeatureChurn() (*Table, error) {
	t := &Table{
		Title:  "Feature churn per adaptation step (Election–Winner, RSVM-IE)",
		Header: []string{"Detector", "Updates/run", "Early added/step", "Early removed/step", "Late added/step", "Late removed/step"},
	}
	for _, det := range []string{"Wind-F", "Mod-C", "Top-K"} {
		results, err := e.RunAll(Spec{Rel: relation.EW, Strategy: "RSVM-IE", Detector: det})
		if err != nil {
			return nil, err
		}
		var updates, eAdd, eRem, lAdd, lRem, eN, lN float64
		for _, r := range results {
			updates += float64(len(r.Churn))
			half := len(r.Churn) / 2
			for i, c := range r.Churn {
				if i < half || len(r.Churn) == 1 {
					eAdd += float64(c.Added)
					eRem += float64(c.Removed)
					eN++
				} else {
					lAdd += float64(c.Added)
					lRem += float64(c.Removed)
					lN++
				}
			}
		}
		n := float64(len(results))
		div := func(a, b float64) string {
			if b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", a/b)
		}
		t.Rows = append(t.Rows, []string{
			det, fmt.Sprintf("%.1f", updates/n),
			div(eAdd, eN), div(eRem, eN), div(lAdd, lN), div(lRem, lN),
		})
	}
	t.Notes = append(t.Notes,
		"the paper reports large feature turnover early in the process that settles in later updates")
	return t, nil
}
