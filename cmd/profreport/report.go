package main

// Rendering for the three report modes. All output is deterministic
// for a given input directory — phases print in canonical pipeline
// order, functions in the stable order TopFuncs defines — which is
// what lets testdata goldens pin the format.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/prof"
)

// phaseOrder is the canonical rendering order; phases outside it sort
// alphabetically after.
var phaseOrder = []string{
	obs.SpanSample, obs.SpanTrainInit, obs.SpanDetectorPrime, obs.SpanRank,
	obs.ProfPhaseExtract, obs.SpanTrainUpdate, obs.ProfPhaseIdle,
}

// sortedPhases returns the phases present in any of the per-phase
// profile sets, in rendering order.
func sortedPhases(sets ...map[string]*prof.Profile) []string {
	var phases []string
	for _, set := range sets {
		for phase := range set {
			if !slices.Contains(phases, phase) {
				phases = append(phases, phase)
			}
		}
	}
	rank := func(phase string) int {
		if i := slices.Index(phaseOrder, phase); i >= 0 {
			return i
		}
		return len(phaseOrder)
	}
	sort.Slice(phases, func(i, j int) bool {
		if ri, rj := rank(phases[i]), rank(phases[j]); ri != rj {
			return ri < rj
		}
		return phases[i] < phases[j]
	})
	return phases
}

// cpuTotal is a profile's total CPU time (0 for nil).
func cpuTotal(p *prof.Profile) int64 {
	if p == nil {
		return 0
	}
	return p.Total(p.ValueIndex("cpu"))
}

func formatValue(v int64, unit string) string {
	switch unit {
	case "nanoseconds":
		return time.Duration(v).Round(10 * time.Microsecond).String()
	case "bytes":
		switch {
		case v >= 1<<20 || v <= -(1<<20):
			return fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
		case v >= 1<<10 || v <= -(1<<10):
			return fmt.Sprintf("%.1fkB", float64(v)/(1<<10))
		}
		return fmt.Sprintf("%dB", v)
	default:
		return fmt.Sprint(v)
	}
}

func signedValue(v int64, unit string) string {
	if v > 0 {
		return "+" + formatValue(v, unit)
	}
	if v < 0 {
		return "-" + formatValue(-v, unit)
	}
	return "0"
}

// reportProfile prints the top-N functions of a single pprof file.
func reportProfile(w io.Writer, path, valueType string, n int) error {
	p, err := prof.ParseFile(path)
	if err != nil {
		return err
	}
	idx := p.ValueIndex(valueType)
	if idx < 0 {
		return fmt.Errorf("%s: profile has no sample values", path)
	}
	vt := p.SampleTypes[idx]
	fmt.Fprintf(w, "profile: %s\n", filepath.Base(path))
	fmt.Fprintf(w, "samples: %d, dimension %s/%s, total %s\n",
		len(p.Samples), vt.Type, vt.Unit, formatValue(p.Total(idx), vt.Unit))
	writeTop(w, p, idx, vt.Unit, n)
	return nil
}

func writeTop(w io.Writer, p *prof.Profile, idx int, unit string, n int) {
	top := prof.TopFuncs(p, idx)
	total := p.Total(idx)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "flat\tflat%\tcum\tfunction\t")
	for i, fs := range top {
		if i >= n {
			fmt.Fprintf(tw, "...\t\t\t(%d more)\t\n", len(top)-n)
			break
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(fs.Flat) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%s\t%s\t\n",
			formatValue(fs.Flat, unit), pct, formatValue(fs.Cum, unit), fs.Name)
	}
	tw.Flush()
}

// loadDir reads a profile directory's manifest, merges every CPU window
// and splits the samples by their phase label. Unlabelled samples —
// outside any run, or runtime background work such as GC mark workers —
// are reported as idle.
func loadDir(dir string) (*prof.Manifest, map[string]*prof.Profile, error) {
	m, err := prof.ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	var windows []*prof.Profile
	for _, r := range m.ByArtifact(obs.ProfArtifactCPU) {
		p, err := prof.ParseFile(filepath.Join(dir, r.File))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", r.File, err)
		}
		windows = append(windows, p)
	}
	merged, err := prof.Merge(windows...)
	if err != nil {
		return nil, nil, err
	}
	return m, prof.SplitByLabel(merged, obs.LabelPhase, obs.ProfPhaseIdle), nil
}

func writeHeader(w io.Writer, dir string, m *prof.Manifest) {
	fmt.Fprintf(w, "profile directory: %s\n", dir)
	h := m.Header
	fmt.Fprintf(w, "run %s", h.RunID)
	if h.Fingerprint != "" {
		fmt.Fprintf(w, "  fingerprint %s", h.Fingerprint)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s %s/%s gomaxprocs %d\n", h.Go, h.GOOS, h.GOARCH, h.GOMAXPROCS)
}

// reportDir prints the per-phase summary of one profile directory: CPU
// per phase label and its share, then each phase's top functions.
func reportDir(w io.Writer, dir string, n int) error {
	m, profiles, err := loadDir(dir)
	if err != nil {
		return err
	}
	writeHeader(w, dir, m)
	cpuRecs := m.ByArtifact(obs.ProfArtifactCPU)
	fmt.Fprintf(w, "artifacts: %d (%d cpu windows, %d snapshots)\n\n",
		len(m.Artifacts), len(cpuRecs), len(m.Artifacts)-len(cpuRecs))

	phases := sortedPhases(profiles)
	var total int64
	for _, p := range profiles {
		total += cpuTotal(p)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\tcpu\tshare\t")
	for _, phase := range phases {
		cpu := cpuTotal(profiles[phase])
		share := 0.0
		if total > 0 {
			share = 100 * float64(cpu) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f%%\t\n", phase, formatValue(cpu, "nanoseconds"), share)
	}
	tw.Flush()

	for _, phase := range phases {
		p := profiles[phase]
		idx := p.ValueIndex("cpu")
		unit := p.SampleTypes[idx].Unit
		fmt.Fprintf(w, "\nphase %s — top %d by flat cpu\n", phase, n)
		writeTop(w, p, idx, unit, n)
	}
	return nil
}

// diffDirs prints what changed from the old run to the new one: header
// environment drift, per-phase CPU deltas, and per-phase function-level
// CPU deltas with the biggest regressions first.
func diffDirs(w io.Writer, oldDir, newDir string, n int) error {
	oldM, oldP, err := loadDir(oldDir)
	if err != nil {
		return err
	}
	newM, newP, err := loadDir(newDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "profile diff: %s -> %s\n", oldDir, newDir)
	fmt.Fprintf(w, "run %s -> %s\n", oldM.Header.RunID, newM.Header.RunID)
	for _, warn := range envDrift(oldM.Header, newM.Header) {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}

	phases := sortedPhases(oldP, newP)
	fmt.Fprintln(w, "\nphase cpu")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\told\tnew\tdelta\t")
	for _, phase := range phases {
		o, nw := cpuTotal(oldP[phase]), cpuTotal(newP[phase])
		delta := signedValue(nw-o, "nanoseconds")
		if o > 0 {
			delta += fmt.Sprintf(" (%+.1f%%)", 100*float64(nw-o)/float64(o))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n",
			phase, formatValue(o, "nanoseconds"), formatValue(nw, "nanoseconds"), delta)
	}
	tw.Flush()

	for _, phase := range phases {
		rows := diffPhase(oldP[phase], newP[phase])
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nphase %s — function cpu deltas (top %d, regressions first)\n", phase, n)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "delta\told\tnew\tfunction\t")
		for i, row := range rows {
			if i >= n {
				fmt.Fprintf(tw, "...\t\t\t(%d more)\t\n", len(rows)-n)
				break
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n",
				signedValue(row.delta, "nanoseconds"),
				formatValue(row.old, "nanoseconds"),
				formatValue(row.new, "nanoseconds"), row.name)
		}
		tw.Flush()
	}
	return nil
}

// envDrift lists environment differences between two manifest headers —
// the caveats a profile comparison comes with.
func envDrift(old, new prof.Record) []string {
	var out []string
	if old.Go != new.Go {
		out = append(out, fmt.Sprintf("go version differs: %s -> %s", old.Go, new.Go))
	}
	if old.GOOS != new.GOOS || old.GOARCH != new.GOARCH {
		out = append(out, fmt.Sprintf("platform differs: %s/%s -> %s/%s",
			old.GOOS, old.GOARCH, new.GOOS, new.GOARCH))
	}
	if old.GOMAXPROCS != new.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs differs: %d -> %d", old.GOMAXPROCS, new.GOMAXPROCS))
	}
	return out
}

type diffRow struct {
	name     string
	old, new int64
	delta    int64
}

// diffPhase joins the flat-CPU tables of two per-phase profiles.
// Rows sort by delta descending (worst regression first), ties by name.
func diffPhase(oldP, newP *prof.Profile) []diffRow {
	flat := map[string]*diffRow{}
	add := func(p *prof.Profile, set func(*diffRow, int64)) {
		if p == nil {
			return
		}
		for _, fs := range prof.TopFuncs(p, p.ValueIndex("cpu")) {
			row := flat[fs.Name]
			if row == nil {
				row = &diffRow{name: fs.Name}
				flat[fs.Name] = row
			}
			set(row, fs.Flat)
		}
	}
	add(oldP, func(r *diffRow, v int64) { r.old = v })
	add(newP, func(r *diffRow, v int64) { r.new = v })
	rows := make([]diffRow, 0, len(flat))
	for _, row := range flat {
		row.delta = row.new - row.old
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].delta != rows[j].delta {
			return rows[i].delta > rows[j].delta
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// reportBundle renders a postmortem bundle: what tripped the recorder,
// the process state at dump time, and the tail of the flight-recorder
// ring leading up to the trigger.
func reportBundle(w io.Writer, dir string, n int) error {
	meta, err := blackbox.ReadMeta(dir)
	if err != nil {
		return fmt.Errorf("not a complete bundle (missing %s): %w", blackbox.MetaName, err)
	}
	fmt.Fprintf(w, "postmortem bundle: %s\n", dir)
	fmt.Fprintf(w, "reason: %s\n", meta.Reason)
	if tr := meta.Trigger; tr != nil {
		fmt.Fprintf(w, "trigger: %s", tr.Kind)
		if tr.Name != "" {
			fmt.Fprintf(w, " name=%s", tr.Name)
		}
		if tr.Doc != 0 {
			fmt.Fprintf(w, " doc=%d", tr.Doc)
		}
		if tr.Val != 0 {
			fmt.Fprintf(w, " val=%g", tr.Val)
		}
		if tr.Limit != 0 {
			fmt.Fprintf(w, " limit=%g", tr.Limit)
		}
		fmt.Fprintf(w, " seq=%d\n", tr.Seq)
	}
	if meta.RunID != "" {
		fmt.Fprintf(w, "run: %s\n", meta.RunID)
	}
	if meta.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint: %s\n", meta.Fingerprint)
	}
	if meta.T != 0 {
		fmt.Fprintf(w, "time: %s\n", time.Unix(0, meta.T).UTC().Format(time.RFC3339Nano))
	}
	fmt.Fprintf(w, "process: %s pid %d\n", meta.Go, meta.PID)
	fmt.Fprintf(w, "ring: %d events recorded, %d dropped\n", meta.Events, meta.Dropped)

	var rt struct {
		Goroutines int    `json:"goroutines"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		HeapAlloc  int64  `json:"heap_alloc_bytes"`
		HeapSys    int64  `json:"heap_sys_bytes"`
		NumGC      uint32 `json:"num_gc"`
	}
	if data, err := os.ReadFile(filepath.Join(dir, "runtime.json")); err == nil {
		if err := json.Unmarshal(data, &rt); err == nil {
			fmt.Fprintf(w, "runtime: %d goroutines, heap %s (%s sys), %d GCs, gomaxprocs %d\n",
				rt.Goroutines, formatValue(rt.HeapAlloc, "bytes"),
				formatValue(rt.HeapSys, "bytes"), rt.NumGC, rt.GOMAXPROCS)
		}
	}

	var spans []struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
	}
	if data, err := os.ReadFile(filepath.Join(dir, "spans.json")); err == nil {
		json.Unmarshal(data, &spans)
	}
	if len(spans) > 0 {
		fmt.Fprintln(w, "\nactive spans at dump:")
		depth := map[int64]int{}
		for _, s := range spans {
			depth[s.ID] = depth[s.Parent] + 1
			fmt.Fprintf(w, "%s%s (span %d)\n", strings.Repeat("  ", depth[s.ID]), s.Name, s.ID)
		}
	}

	if decisions := readEventsFile(filepath.Join(dir, "decisions.jsonl")); len(decisions) > 0 {
		fmt.Fprintf(w, "\nlast %d detector decisions:\n", len(decisions))
		for _, e := range decisions {
			fired := ""
			if e.Fired {
				fired = "  FIRED"
			}
			fmt.Fprintf(w, "  seq %d  %s val=%g%s\n", e.Seq, e.Name, e.Val, fired)
		}
	}

	if events := readEventsFile(filepath.Join(dir, "events.jsonl")); len(events) > 0 {
		tail := events
		if len(tail) > n {
			tail = tail[len(tail)-n:]
		}
		fmt.Fprintf(w, "\nlast %d of %d ring events:\n", len(tail), len(events))
		for _, e := range tail {
			fmt.Fprintf(w, "  seq %d  %s", e.Seq, e.Kind)
			if e.Name != "" {
				fmt.Fprintf(w, " name=%s", e.Name)
			}
			if e.Doc != 0 {
				fmt.Fprintf(w, " doc=%d", e.Doc)
			}
			if e.N != 0 {
				fmt.Fprintf(w, " n=%d", e.N)
			}
			fmt.Fprintln(w)
		}
	}

	if data, err := os.ReadFile(filepath.Join(dir, "goroutines.txt")); err == nil {
		fmt.Fprintf(w, "\ngoroutine dump: %d goroutines (goroutines.txt)\n",
			strings.Count(string(data), "goroutine "))
		// Show the first stanza — the goroutine that triggered the dump.
		if stanza, _, ok := strings.Cut(string(data), "\n\n"); ok {
			fmt.Fprintln(w, stanza)
		}
	}
	return nil
}

func readEventsFile(path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	events, _ := obs.ReadEventsPartial(f)
	return events
}
