package prof

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"adaptiverank/internal/obs"
)

func TestEncodeParseRoundTrip(t *testing.T) {
	in := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples: []Sample{
			{Stack: []string{"leaf", "mid", "root"}, Values: []int64{150}},
			{Stack: []string{"other", "root"}, Values: []int64{50}},
			{Stack: []string{"leaf", "root"}, Values: []int64{25}},
			{Stack: []string{"leaf", "root"}, Values: []int64{5},
				Labels: map[string]string{obs.LabelPhase: obs.SpanRank, "worker": "2"}},
			{Stack: []string{"other"}, Values: []int64{7},
				Labels: map[string]string{obs.LabelPhase: obs.ProfPhaseExtract}},
		},
		PeriodType:    ValueType{Type: "cpu", Unit: "nanoseconds"},
		Period:        10000000,
		TimeNanos:     1700000000000000000,
		DurationNanos: 2000000000,
	}
	raw, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("Encode output not gzipped (starts %x)", raw[:2])
	}
	out, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	// Deterministic encoding: same value, same bytes.
	raw2, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode again: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("Encode is not deterministic for identical input")
	}
}

func TestParseRuntimeHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse real heap profile: %v", err)
	}
	if len(p.SampleTypes) == 0 {
		t.Fatal("no sample types decoded")
	}
	idx := p.ValueIndex("inuse_space")
	if p.SampleTypes[idx].Type != "inuse_space" {
		t.Errorf("ValueIndex(inuse_space) = %d (%+v)", idx, p.SampleTypes)
	}
	if len(p.Samples) == 0 {
		t.Fatal("no samples decoded from a live heap profile")
	}
	// Stacks must resolve to real function names, not raw addresses.
	var named bool
	for _, s := range p.Samples {
		for _, fn := range s.Stack {
			if strings.Contains(fn, ".") {
				named = true
			}
		}
	}
	if !named {
		t.Error("no sample stack resolved to a qualified function name")
	}
}

func TestTopFuncs(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples: []Sample{
			{Stack: []string{"leaf", "mid", "root"}, Values: []int64{100}},
			{Stack: []string{"mid", "root"}, Values: []int64{40}},
			{Stack: []string{"leaf", "root"}, Values: []int64{10}},
		},
	}
	got := TopFuncs(p, 0)
	want := []FuncStat{
		{Name: "leaf", Flat: 110, Cum: 110},
		{Name: "mid", Flat: 40, Cum: 140},
		{Name: "root", Flat: 0, Cum: 150},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopFuncs:\n got %+v\nwant %+v", got, want)
	}
}

func TestTopFuncsRecursion(t *testing.T) {
	// A frame appearing twice in one stack must count once cumulatively.
	p := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples:     []Sample{{Stack: []string{"f", "f", "root"}, Values: []int64{30}}},
	}
	got := TopFuncs(p, 0)
	if got[0].Name != "f" || got[0].Cum != 30 {
		t.Errorf("recursive frame double-counted: %+v", got)
	}
}

func TestMerge(t *testing.T) {
	a := &Profile{
		SampleTypes:   []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples:       []Sample{{Stack: []string{"x"}, Values: []int64{1}}},
		TimeNanos:     200,
		DurationNanos: 10,
	}
	b := &Profile{
		SampleTypes:   []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples:       []Sample{{Stack: []string{"y"}, Values: []int64{2}}},
		TimeNanos:     100,
		DurationNanos: 5,
	}
	m, err := Merge(a, nil, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(m.Samples) != 2 || m.DurationNanos != 15 || m.TimeNanos != 100 {
		t.Errorf("Merge result: %+v", m)
	}
	if _, err := Merge(a, &Profile{SampleTypes: []ValueType{{Type: "space", Unit: "bytes"}}}); err == nil {
		t.Error("Merge accepted mismatched sample types")
	}
	empty, err := Merge(nil, nil)
	if err != nil || empty == nil {
		t.Errorf("Merge(nil, nil) = %v, %v", empty, err)
	}

	// Labelled: labels survive Merge, and SplitByLabel keeps samples
	// with different labels apart — identical stacks included — with
	// unlabelled samples under the fallback name.
	rank := map[string]string{obs.LabelPhase: obs.SpanRank}
	extract := map[string]string{obs.LabelPhase: obs.ProfPhaseExtract}
	cpu := []ValueType{{Type: "cpu", Unit: "nanoseconds"}}
	a = &Profile{SampleTypes: cpu, Samples: []Sample{
		{Stack: []string{"score"}, Values: []int64{3}, Labels: rank},
		{Stack: []string{"score"}, Values: []int64{5}, Labels: extract},
	}}
	b = &Profile{SampleTypes: cpu, Samples: []Sample{
		{Stack: []string{"score"}, Values: []int64{7}, Labels: rank},
		{Stack: []string{"gc"}, Values: []int64{11}},
	}}
	m, err = Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !reflect.DeepEqual(m.Samples, append(append([]Sample(nil), a.Samples...), b.Samples...)) {
		t.Fatalf("Merge dropped or rewrote samples: %+v", m.Samples)
	}
	parts := SplitByLabel(m, obs.LabelPhase, obs.ProfPhaseIdle)
	want := map[string]int64{obs.SpanRank: 10, obs.ProfPhaseExtract: 5, obs.ProfPhaseIdle: 11}
	if len(parts) != len(want) {
		t.Fatalf("SplitByLabel phases = %d, want %d", len(parts), len(want))
	}
	for phase, total := range want {
		p := parts[phase]
		if p == nil || p.Total(0) != total {
			t.Errorf("phase %s: %+v, want total %d", phase, p, total)
			continue
		}
		if !reflect.DeepEqual(p.SampleTypes, cpu) {
			t.Errorf("phase %s lost its sample types: %+v", phase, p.SampleTypes)
		}
	}
}

func TestManifestRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	mw, err := newManifestWriter(nil, dir, Record{RunID: "r1", Go: "go1.x", GOMAXPROCS: 4})
	if err != nil {
		t.Fatalf("newManifestWriter: %v", err)
	}
	recs := []Record{
		{Artifact: obs.ProfArtifactCPU, File: "0001-cpu.pb.gz", Phase: obs.SpanRank, Span: 7, T0: 10, T1: 20},
		{Artifact: obs.ProfArtifactHeap, File: "0002-heap.pb.gz", Phase: obs.ProfPhaseExtract, T0: 20, T1: 20},
		{Artifact: obs.ProfArtifactCPU, File: "0003-cpu.pb.gz", Phase: obs.SpanRank, Span: 9, T0: 20, T1: 50},
	}
	for _, r := range recs {
		if err := mw.append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := mw.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-append: a torn final line must be ignored.
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"artifact","file":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Header.RunID != "r1" || m.Header.GOMAXPROCS != 4 {
		t.Errorf("header: %+v", m.Header)
	}
	if len(m.Artifacts) != 3 {
		t.Fatalf("got %d artifacts, want 3 (torn tail must be dropped)", len(m.Artifacts))
	}
	if cpu := m.ByArtifact(obs.ProfArtifactCPU); len(cpu) != 2 {
		t.Errorf("ByArtifact(cpu) = %d records, want 2", len(cpu))
	}
}

func TestProfilerLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	p, err := Start(Options{
		Dir:             dir,
		RunID:           "test-run",
		Fingerprint:     "fp-abc",
		CPUWindow:       time.Second,
		MetricsInterval: 10 * time.Millisecond,
		Registry:        reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	rec := p.Recorder()
	if !rec.Enabled() {
		t.Fatal("profiler recorder must be enabled")
	}
	// Simulate a run: run > sample, rank, train-update phase spans.
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRun, Span: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanSample, Span: 2, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanSample, Span: 2, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRank, Span: 3, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanRank, Span: 3, Parent: 1})
	// Non-phase spans must be ignored entirely.
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanDoc, Span: 4, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanDoc, Span: 4, Parent: 1})
	time.Sleep(30 * time.Millisecond) // let the metrics ticker fire
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanRun, Span: 1})
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Header.RunID != "test-run" || m.Header.Fingerprint != "fp-abc" {
		t.Errorf("header identity: %+v", m.Header)
	}
	if m.Header.Go == "" || m.Header.GOMAXPROCS == 0 {
		t.Errorf("header environment not stamped: %+v", m.Header)
	}

	// CPU windows rotate only on the CPUWindow timer: a run shorter than
	// the window, however many phase spans it opens, writes exactly one
	// CPU artifact, and it carries no phase (samples carry it as a label).
	cpu := m.ByArtifact(obs.ProfArtifactCPU)
	if len(cpu) != 1 {
		t.Fatalf("got %d CPU windows for a run shorter than CPUWindow, want 1: %+v", len(cpu), cpu)
	}
	if cpu[0].Phase != "" || cpu[0].Span != 0 || cpu[0].T1 < cpu[0].T0 {
		t.Errorf("CPU window record: %+v", cpu[0])
	}

	// Phase-end snapshots: heap records attributed to sample and rank
	// with their span ids; the doc span takes none.
	heapPhases := map[string]int64{}
	for _, r := range m.ByArtifact(obs.ProfArtifactHeap) {
		heapPhases[r.Phase] = r.Span
	}
	if heapPhases[obs.SpanSample] != 2 || heapPhases[obs.SpanRank] != 3 {
		t.Errorf("phase snapshots missing or mis-attributed: %v", heapPhases)
	}
	if _, ok := heapPhases[obs.SpanDoc]; ok {
		t.Error("doc span took a phase snapshot")
	}
	// Run boundaries capture allocs+goroutine too.
	if n := len(m.ByArtifact(obs.ProfArtifactAllocs)); n < 3 {
		t.Errorf("got %d allocs snapshots, want >=3 (start, run open, run close)", n)
	}

	// Every manifest artifact file must exist and, for pprof kinds, parse.
	for _, r := range m.Artifacts {
		full := filepath.Join(dir, r.File)
		if _, err := os.Stat(full); err != nil {
			t.Errorf("artifact %s missing: %v", r.File, err)
			continue
		}
		if strings.HasSuffix(r.File, ".pb.gz") {
			if _, err := ParseFile(full); err != nil {
				t.Errorf("artifact %s does not parse: %v", r.File, err)
			}
		}
	}

	// Metrics: at least the start, one tick, and the close sample.
	data, err := os.ReadFile(filepath.Join(dir, "metrics.jsonl"))
	if err != nil {
		t.Fatalf("metrics.jsonl: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("got %d metrics samples, want >=3", len(lines))
	}
	var ms MetricsSample
	if err := json.Unmarshal(lines[0], &ms); err != nil {
		t.Fatalf("metrics line: %v", err)
	}
	if len(ms.M) == 0 || ms.T == 0 {
		t.Errorf("empty metrics sample: %+v", ms)
	}
	if len(m.ByArtifact(obs.ProfArtifactMetrics)) != 1 {
		t.Error("metrics.jsonl not recorded in manifest")
	}

	// Counters moved.
	if n := reg.Counter(obs.MetricProfCPUWindows).Value(); n != 1 {
		t.Errorf("prof.cpu_windows = %d, want 1", n)
	}
	if reg.Counter(obs.MetricProfSnapshots).Value() == 0 {
		t.Error("prof.snapshots counter never incremented")
	}
}

func TestDirHandler(t *testing.T) {
	dir := t.TempDir()
	mw, err := newManifestWriter(nil, dir, Record{RunID: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0001-heap.pb.gz"), []byte("fake"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mw.append(Record{Artifact: obs.ProfArtifactHeap, File: "0001-heap.pb.gz", Phase: obs.ProfPhaseIdle}); err != nil {
		t.Fatal(err)
	}
	if err := mw.close(); err != nil {
		t.Fatal(err)
	}
	h := DirHandler(dir)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /: %d %s", rr.Code, rr.Body)
	}
	var listing struct {
		Header    Record   `json:"header"`
		Artifacts []Record `json:"artifacts"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing JSON: %v", err)
	}
	if listing.Header.RunID != "h1" || len(listing.Artifacts) != 1 {
		t.Errorf("listing: %+v", listing)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/0001-heap.pb.gz", nil))
	if rr.Code != 200 || rr.Body.String() != "fake" {
		t.Errorf("GET artifact: %d %q", rr.Code, rr.Body)
	}

	for _, path := range []string{"/../secrets", "/nope.pb.gz", "/a/b"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("GET %s: %d, want 404", path, rr.Code)
		}
	}
}
