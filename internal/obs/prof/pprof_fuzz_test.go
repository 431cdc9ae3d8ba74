package prof

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"

	"adaptiverank/internal/obs"
)

// FuzzParseProfile asserts the pprof decoder never panics on arbitrary
// bytes, and that whatever it accepts survives Encode→Parse unchanged:
// the encoder writes back every stack, value and string label the
// decoder kept. Seeds are an encoded phase-labelled profile and a real
// runtime heap profile (numeric labels, mappings, inlined frames).
func FuzzParseProfile(f *testing.F) {
	labelled := &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples: []Sample{
			{Stack: []string{"score", "rank"}, Values: []int64{2, 20000000},
				Labels: map[string]string{obs.LabelPhase: obs.SpanRank}},
			{Stack: []string{"extract"}, Values: []int64{1, 10000000},
				Labels: map[string]string{obs.LabelPhase: obs.ProfPhaseExtract}},
			{Stack: []string{"gcBgMarkWorker"}, Values: []int64{1, 10000000}},
		},
		PeriodType: ValueType{Type: "cpu", Unit: "nanoseconds"},
		Period:     10000000,
		TimeNanos:  1700000000000000000,
	}
	raw, err := labelled.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	var heap bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(heap.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			return // negative sample values have no encoding
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of encoded profile: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("Encode→Parse round trip differs:\n got %+v\nwant %+v", back, p)
		}
	})
}
