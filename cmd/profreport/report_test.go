package main

// Golden-fixture tests: the profile directories are built from literal,
// phase-labelled profiles through the deterministic encoder and
// hand-written manifest records with fixed timestamps, so the rendered
// reports are stable byte-for-byte. Regenerate with
//
//	go test ./cmd/profreport -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/prof"
)

var update = flag.Bool("update", false, "rewrite golden files")

const base = int64(1_700_000_000_000_000_000)

// writeFixtureDir builds a profile directory from manifest records and
// per-file profiles.
func writeFixtureDir(t *testing.T, dir string, header prof.Record, artifacts []prof.Record, profiles map[string]*prof.Profile) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var man bytes.Buffer
	header.Kind = prof.RecordHeader
	writeLine := func(r prof.Record) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		man.Write(line)
		man.WriteByte('\n')
	}
	writeLine(header)
	for _, a := range artifacts {
		a.Kind = prof.RecordArtifact
		writeLine(a)
	}
	if err := os.WriteFile(filepath.Join(dir, prof.ManifestName), man.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, p := range profiles {
		raw, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func cpuProfile(samples ...prof.Sample) *prof.Profile {
	return &prof.Profile{
		SampleTypes: []prof.ValueType{
			{Type: "samples", Unit: "count"},
			{Type: "cpu", Unit: "nanoseconds"},
		},
		Samples:    samples,
		PeriodType: prof.ValueType{Type: "cpu", Unit: "nanoseconds"},
		Period:     10_000_000,
	}
}

// sample is one CPU sample of ns under the pprof label phase=<phase>;
// an empty phase leaves the sample unlabelled.
func sample(ns int64, phase string, stack ...string) prof.Sample {
	s := prof.Sample{Stack: stack, Values: []int64{ns / 10_000_000, ns}}
	if phase != "" {
		s.Labels = map[string]string{obs.LabelPhase: phase}
	}
	return s
}

const (
	fnScore   = "adaptiverank/internal/ranking.(*RSVM).Score"
	fnDot     = "adaptiverank/internal/vector.Dot"
	fnSort    = "sort.Sort"
	fnRank    = "adaptiverank/internal/pipeline.(*run).rank"
	fnExtract = "adaptiverank/internal/extract.(*Simulated).Extract"
	fnLearn   = "adaptiverank/internal/ranking.(*RSVM).learn"
	fnGC      = "runtime.gcBgMarkWorker"
)

// fixtureOld builds the baseline run's profile directory: two CPU
// windows whose samples carry their phase as a label (the rank phase
// spans both), one heap snapshot, and an unlabelled GC sample.
func fixtureOld(t *testing.T, dir string) {
	writeFixtureDir(t, dir,
		prof.Record{RunID: "run-old", Fingerprint: "fp-old", Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8},
		[]prof.Record{
			{Artifact: obs.ProfArtifactCPU, File: "0001-cpu.pb.gz", T0: base, T1: base + 30e6},
			{Artifact: obs.ProfArtifactHeap, File: "0002-heap.pb.gz", Phase: obs.SpanSample, Span: 2, T0: base + 10e6, T1: base + 10e6},
			{Artifact: obs.ProfArtifactCPU, File: "0003-cpu.pb.gz", T0: base + 30e6, T1: base + 60e6},
		},
		map[string]*prof.Profile{
			"0001-cpu.pb.gz": cpuProfile(
				sample(4e6, obs.SpanSample, fnScore, fnRank),
				sample(2e6, obs.SpanSample, fnDot, fnScore, fnRank),
				sample(10e6, obs.SpanRank, fnScore, fnRank),
				sample(6e6, obs.SpanRank, fnDot, fnScore, fnRank),
				sample(2e6, obs.SpanRank, fnSort, fnRank),
			),
			"0002-heap.pb.gz": &prof.Profile{
				SampleTypes: []prof.ValueType{{Type: "inuse_space", Unit: "bytes"}},
				Samples:     []prof.Sample{{Stack: []string{fnScore}, Values: []int64{1 << 20}}},
			},
			"0003-cpu.pb.gz": cpuProfile(
				sample(8e6, obs.SpanRank, fnScore, fnRank),
				sample(4e6, obs.SpanRank, fnDot, fnScore, fnRank),
				sample(9e6, obs.ProfPhaseExtract, fnExtract),
				sample(1e6, "", fnGC),
			),
		})
}

// fixtureNew builds the current run in one CPU window: rank regressed
// (sort got hot), gomaxprocs drifted, a train-update phase appeared, and
// the unlabelled GC work doubled.
func fixtureNew(t *testing.T, dir string) {
	writeFixtureDir(t, dir,
		prof.Record{RunID: "run-new", Fingerprint: "fp-new", Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4},
		[]prof.Record{
			{Artifact: obs.ProfArtifactCPU, File: "0001-cpu.pb.gz", T0: base, T1: base + 95e6},
		},
		map[string]*prof.Profile{
			"0001-cpu.pb.gz": cpuProfile(
				sample(4e6, obs.SpanSample, fnScore, fnRank),
				sample(3e6, obs.SpanSample, fnDot, fnScore, fnRank),
				sample(18e6, obs.SpanRank, fnScore, fnRank),
				sample(10e6, obs.SpanRank, fnDot, fnScore, fnRank),
				sample(26e6, obs.SpanRank, fnSort, fnRank),
				sample(8e6, obs.ProfPhaseExtract, fnExtract),
				sample(12e6, obs.SpanTrainUpdate, fnLearn),
				sample(2e6, "", fnGC),
			),
		})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenReportDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "old")
	fixtureOld(t, dir)
	var buf bytes.Buffer
	if err := reportDir(&buf, dir, 10); err != nil {
		t.Fatalf("reportDir: %v", err)
	}
	// The temp path varies per run; normalize the first line.
	out := buf.Bytes()
	out = bytes.Replace(out, []byte(dir), []byte("OLD"), 1)
	checkGolden(t, "report_dir.golden", out)
}

func TestGoldenDiff(t *testing.T) {
	oldDir := filepath.Join(t.TempDir(), "old")
	newDir := filepath.Join(t.TempDir(), "new")
	fixtureOld(t, oldDir)
	fixtureNew(t, newDir)
	var buf bytes.Buffer
	if err := diffDirs(&buf, oldDir, newDir, 5); err != nil {
		t.Fatalf("diffDirs: %v", err)
	}
	out := buf.Bytes()
	out = bytes.Replace(out, []byte(oldDir), []byte("OLD"), 1)
	out = bytes.Replace(out, []byte(newDir), []byte("NEW"), 1)
	checkGolden(t, "diff.golden", out)
}

func TestGoldenBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle-0001-worker-panic")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("events.jsonl", strings.Join([]string{
		`{"seq":97,"t":1,"kind":"rank-finished","n":120}`,
		`{"seq":98,"t":2,"kind":"doc-extracted","doc":41,"useful":true}`,
		`{"seq":99,"t":3,"kind":"detector-decision","name":"modc","val":12.5}`,
		`{"seq":100,"t":4,"kind":"worker-panic","name":"score","doc":42}`,
	}, "\n")+"\n")
	write("decisions.jsonl", `{"seq":99,"t":3,"kind":"detector-decision","name":"modc","val":12.5,"fired":true}`+"\n")
	write("spans.json", `[{"id":1,"name":"run","t":1},{"id":7,"parent":1,"name":"batch","t":2}]`+"\n")
	write("runtime.json", `{"goroutines":9,"gomaxprocs":8,"heap_alloc_bytes":2097152,"heap_sys_bytes":8388608,"num_gc":3}`+"\n")
	write("goroutines.txt", "goroutine 17 [running]:\nadaptiverank/internal/pipeline.(*run).score.func1()\n\t/repo/internal/pipeline/pipeline.go:389\n\ngoroutine 1 [chan receive]:\nmain.main()\n\t/repo/cmd/adaptiverank/main.go:40\n")
	write("meta.json", `{"run_id":"run-x","fingerprint":"fp-1","reason":"worker-panic",`+
		`"trigger":{"seq":100,"t":4,"kind":"worker-panic","name":"score","doc":42},`+
		`"t":1700000000000000000,"events":240,"dropped":140,"go":"go1.24.0","pid":4242}`+"\n")

	var buf bytes.Buffer
	if err := reportBundle(&buf, dir, 3); err != nil {
		t.Fatalf("reportBundle: %v", err)
	}
	out := bytes.Replace(buf.Bytes(), []byte(dir), []byte("BUNDLE"), 1)
	checkGolden(t, "bundle.golden", out)
}

func TestGoldenSingleProfile(t *testing.T) {
	dir := t.TempDir()
	p := cpuProfile(
		sample(10e6, obs.SpanRank, fnScore, fnRank),
		sample(6e6, obs.SpanRank, fnDot, fnScore, fnRank),
		sample(2e6, obs.SpanRank, fnSort, fnRank),
	)
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cpu.pb.gz")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reportProfile(&buf, path, "cpu", 2); err != nil {
		t.Fatalf("reportProfile: %v", err)
	}
	checkGolden(t, "single_profile.golden", buf.Bytes())
}

func TestRunUsageErrors(t *testing.T) {
	// No mode flags: run() must fail with exit code 2, not crash.
	oldArgs := os.Args
	defer func() { os.Args = oldArgs; flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError) }()
	t.Cleanup(func() {})
	os.Args = []string{"profreport"}
	flag.CommandLine = flag.NewFlagSet("profreport", flag.ContinueOnError)
	flag.CommandLine.SetOutput(new(bytes.Buffer))
	if code := run(); code != 2 {
		t.Errorf("run() with no flags = %d, want 2", code)
	}
}
