package prof

// A minimal, dependency-free codec for the pprof protobuf profile
// format (profile.proto), covering exactly what the profiling harness
// and cmd/profreport need: sample types, samples with resolved call
// stacks and string labels, the sampling period, and the wall-clock
// window. The decoder
// reads profiles written by runtime/pprof (gzipped protobuf); the
// encoder exists so tests and golden fixtures can construct
// deterministic profiles without depending on runtime profiling state.
//
// profile.proto field numbers used here:
//
//	Profile:   1 sample_type, 2 sample, 4 location, 5 function,
//	           6 string_table, 9 time_nanos, 10 duration_nanos,
//	           11 period_type, 12 period
//	Sample:    1 location_id (repeated uint64), 2 value (repeated int64),
//	           3 label
//	Label:     1 key, 2 str (string-table indices), 3 num
//	Location:  1 id, 3 address, 4 line
//	Line:      1 function_id
//	Function:  1 id, 2 name (string-table index)
//	ValueType: 1 type, 2 unit (string-table indices)
//
// Everything else (mappings, numeric labels, comments) is skipped on
// read and never written.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// ValueType names one sample value dimension, e.g. {cpu, nanoseconds}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one call stack with its measured values. Stack holds
// function names leaf-most first (the pprof location order). Labels are
// the sample's string labels — for CPU profiles, the pprof labels of the
// goroutine that was running (nil when it had none).
type Sample struct {
	Stack  []string          `json:"stack"`
	Values []int64           `json:"values"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Profile is the decoded, stack-resolved form of one pprof profile.
type Profile struct {
	SampleTypes   []ValueType `json:"sample_types"`
	Samples       []Sample    `json:"samples"`
	PeriodType    ValueType   `json:"period_type"`
	Period        int64       `json:"period"`
	TimeNanos     int64       `json:"time_nanos"`
	DurationNanos int64       `json:"duration_nanos"`
}

// ValueIndex returns the index of the sample-value dimension with the
// given type name, or the last dimension when absent (for CPU profiles
// that is the cpu/nanoseconds dimension; for heap profiles the
// inuse_space dimension).
func (p *Profile) ValueIndex(typ string) int {
	for i, vt := range p.SampleTypes {
		if vt.Type == typ {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// Total sums one value dimension across all samples.
func (p *Profile) Total(valueIndex int) int64 {
	var total int64
	for _, s := range p.Samples {
		if valueIndex >= 0 && valueIndex < len(s.Values) {
			total += s.Values[valueIndex]
		}
	}
	return total
}

// --- decoding ---------------------------------------------------------

const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type protoReader struct {
	b   []byte
	pos int
}

func (r *protoReader) done() bool { return r.pos >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.b) {
			return 0, io.ErrUnexpectedEOF
		}
		if shift >= 64 {
			return 0, fmt.Errorf("prof: varint overflow")
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

// field reads one field header, returning the field number and wire type.
func (r *protoReader) field() (int, int, error) {
	tag, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

func (r *protoReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)-r.pos) < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *protoReader) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := r.varint()
		return err
	case wireI64:
		if len(r.b)-r.pos < 8 {
			return io.ErrUnexpectedEOF
		}
		r.pos += 8
		return nil
	case wireBytes:
		_, err := r.bytes()
		return err
	case wireI32:
		if len(r.b)-r.pos < 4 {
			return io.ErrUnexpectedEOF
		}
		r.pos += 4
		return nil
	default:
		return fmt.Errorf("prof: unsupported wire type %d", wire)
	}
}

// uint64s reads a repeated uint64 field that may be packed (wireBytes)
// or a single unpacked varint, appending to dst.
func (r *protoReader) uint64s(wire int, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		return append(dst, v), nil
	}
	raw, err := r.bytes()
	if err != nil {
		return dst, err
	}
	pr := protoReader{b: raw}
	for !pr.done() {
		v, err := pr.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// rawPair is a message whose fields 1 and 2 are string-table indices:
// a ValueType (type, unit) or a Label (key, str). num records a Label's
// field 3: numeric labels are skipped.
type rawPair struct {
	a, b int64
	num  bool
}

type rawSample struct {
	locs   []uint64
	vals   []int64
	labels []rawPair
}

type rawLine struct{ funcID uint64 }

type rawLocation struct {
	id      uint64
	address uint64
	lines   []rawLine
}

type rawFunction struct {
	id   uint64
	name int64
}

// Parse decodes a pprof profile, transparently decompressing the gzip
// framing runtime/pprof writes.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		data = raw
	}
	var (
		r       = protoReader{b: data}
		strtab  []string
		rawSTs  []rawPair
		rawPT   rawPair
		samples []rawSample
		locs    = map[uint64]rawLocation{}
		funcs   = map[uint64]rawFunction{}
		p       = &Profile{}
	)
	for !r.done() {
		field, wire, err := r.field()
		if err != nil {
			return nil, fmt.Errorf("prof: parse profile: %w", err)
		}
		switch field {
		case 1, 11: // sample_type, period_type
			raw, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("prof: parse value type: %w", err)
			}
			vt, err := parsePair(raw)
			if err != nil {
				return nil, err
			}
			if field == 1 {
				rawSTs = append(rawSTs, vt)
			} else {
				rawPT = vt
			}
		case 2: // sample
			raw, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("prof: parse sample: %w", err)
			}
			s, err := parseSample(raw)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			raw, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("prof: parse location: %w", err)
			}
			loc, err := parseLocation(raw)
			if err != nil {
				return nil, err
			}
			locs[loc.id] = loc
		case 5: // function
			raw, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("prof: parse function: %w", err)
			}
			fn, err := parseFunction(raw)
			if err != nil {
				return nil, err
			}
			funcs[fn.id] = fn
		case 6: // string_table
			raw, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("prof: parse string table: %w", err)
			}
			strtab = append(strtab, string(raw))
		case 9: // time_nanos
			v, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("prof: parse time_nanos: %w", err)
			}
			p.TimeNanos = int64(v)
		case 10: // duration_nanos
			v, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("prof: parse duration_nanos: %w", err)
			}
			p.DurationNanos = int64(v)
		case 12: // period
			v, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("prof: parse period: %w", err)
			}
			p.Period = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, fmt.Errorf("prof: parse profile field %d: %w", field, err)
			}
		}
	}
	str := func(i int64) (string, error) {
		if i < 0 || int(i) >= len(strtab) {
			return "", fmt.Errorf("prof: string-table index %d out of range [0,%d)", i, len(strtab))
		}
		return strtab[i], nil
	}
	pair := func(rp rawPair) (a, b string, err error) {
		if a, err = str(rp.a); err == nil {
			b, err = str(rp.b)
		}
		return a, b, err
	}
	for _, vt := range rawSTs {
		t, u, err := pair(vt)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: t, Unit: u})
	}
	if rawPT.a != 0 || rawPT.b != 0 {
		t, u, err := pair(rawPT)
		if err != nil {
			return nil, err
		}
		p.PeriodType = ValueType{Type: t, Unit: u}
	}
	// Resolve each sample's location ids to function-name stacks. A
	// location may expand to several lines (inlining), leaf-most first —
	// the same order the location ids themselves use.
	for _, rs := range samples {
		s := Sample{Values: rs.vals}
		for _, l := range rs.labels {
			if l.num {
				continue
			}
			k, v, err := pair(l)
			if err != nil {
				return nil, err
			}
			if s.Labels == nil {
				s.Labels = map[string]string{}
			}
			s.Labels[k] = v
		}
		for _, lid := range rs.locs {
			loc, ok := locs[lid]
			if !ok {
				return nil, fmt.Errorf("prof: sample references unknown location %d", lid)
			}
			if len(loc.lines) == 0 {
				s.Stack = append(s.Stack, fmt.Sprintf("0x%x", loc.address))
				continue
			}
			for _, ln := range loc.lines {
				fn, ok := funcs[ln.funcID]
				if !ok {
					return nil, fmt.Errorf("prof: location %d references unknown function %d", lid, ln.funcID)
				}
				name, err := str(fn.name)
				if err != nil {
					return nil, err
				}
				s.Stack = append(s.Stack, name)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// ParseFile reads and decodes one profile file.
func ParseFile(path string) (*Profile, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

func parsePair(raw []byte) (rawPair, error) {
	r := protoReader{b: raw}
	var rp rawPair
	for !r.done() {
		field, wire, err := r.field()
		if err != nil {
			return rp, fmt.Errorf("prof: parse value type or label: %w", err)
		}
		var v uint64
		switch field {
		case 1, 2:
			if v, err = r.varint(); err != nil {
				return rp, err
			}
			if field == 1 {
				rp.a = int64(v)
			} else {
				rp.b = int64(v)
			}
		default:
			rp.num = rp.num || field == 3
			if err := r.skip(wire); err != nil {
				return rp, err
			}
		}
	}
	return rp, nil
}

func parseSample(raw []byte) (rawSample, error) {
	r := protoReader{b: raw}
	var s rawSample
	for !r.done() {
		field, wire, err := r.field()
		if err != nil {
			return s, fmt.Errorf("prof: parse sample: %w", err)
		}
		switch field {
		case 1:
			if s.locs, err = r.uint64s(wire, s.locs); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = r.uint64s(wire, nil); err != nil {
				return s, err
			}
			for _, v := range vals {
				s.vals = append(s.vals, int64(v))
			}
		case 3:
			raw, err := r.bytes()
			if err != nil {
				return s, err
			}
			l, err := parsePair(raw)
			if err != nil {
				return s, err
			}
			s.labels = append(s.labels, l)
		default:
			if err := r.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

func parseLocation(raw []byte) (rawLocation, error) {
	r := protoReader{b: raw}
	var loc rawLocation
	for !r.done() {
		field, wire, err := r.field()
		if err != nil {
			return loc, fmt.Errorf("prof: parse location: %w", err)
		}
		switch field {
		case 1:
			if loc.id, err = r.varint(); err != nil {
				return loc, err
			}
		case 3:
			if loc.address, err = r.varint(); err != nil {
				return loc, err
			}
		case 4:
			lraw, err := r.bytes()
			if err != nil {
				return loc, err
			}
			lr := protoReader{b: lraw}
			var line rawLine
			for !lr.done() {
				lf, lw, err := lr.field()
				if err != nil {
					return loc, err
				}
				if lf == 1 {
					if line.funcID, err = lr.varint(); err != nil {
						return loc, err
					}
				} else if err := lr.skip(lw); err != nil {
					return loc, err
				}
			}
			loc.lines = append(loc.lines, line)
		default:
			if err := r.skip(wire); err != nil {
				return loc, err
			}
		}
	}
	return loc, nil
}

func parseFunction(raw []byte) (rawFunction, error) {
	r := protoReader{b: raw}
	var fn rawFunction
	for !r.done() {
		field, wire, err := r.field()
		if err != nil {
			return fn, fmt.Errorf("prof: parse function: %w", err)
		}
		switch field {
		case 1:
			if fn.id, err = r.varint(); err != nil {
				return fn, err
			}
		case 2:
			v, err := r.varint()
			if err != nil {
				return fn, err
			}
			fn.name = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return fn, err
			}
		}
	}
	return fn, nil
}

// --- encoding ---------------------------------------------------------

type protoWriter struct{ b []byte }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *protoWriter) tag(field, wire int) { w.varint(uint64(field)<<3 | uint64(wire)) }

func (w *protoWriter) bytes(field int, raw []byte) {
	w.tag(field, wireBytes)
	w.varint(uint64(len(raw)))
	w.b = append(w.b, raw...)
}

func (w *protoWriter) uint(field int, v uint64) {
	if v == 0 {
		return
	}
	w.tag(field, wireVarint)
	w.varint(v)
}

func (w *protoWriter) packed(field int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	var inner protoWriter
	for _, v := range vals {
		inner.varint(v)
	}
	w.bytes(field, inner.b)
}

// Encode serializes the profile as a gzipped pprof protobuf, the same
// framing runtime/pprof writes. One function and one location are
// emitted per distinct stack-frame name; samples reference them by id.
// Encoding is deterministic for a given Profile value, which is what
// lets tests commit golden fixtures built from literals.
func (p *Profile) Encode() ([]byte, error) {
	strtab := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strtab))
		strtab = append(strtab, s)
		strIdx[s] = i
		return i
	}
	valueType := func(vt ValueType) []byte {
		var w protoWriter
		w.uint(1, intern(vt.Type))
		w.uint(2, intern(vt.Unit))
		return w.b
	}

	var w protoWriter
	for _, vt := range p.SampleTypes {
		w.bytes(1, valueType(vt))
	}
	// Assign function/location ids per distinct frame name, in first-use
	// order (ids must be non-zero per profile.proto).
	funcID := map[string]uint64{}
	var funcNames []string
	for _, s := range p.Samples {
		var sw protoWriter
		locs := make([]uint64, 0, len(s.Stack))
		for _, frame := range s.Stack {
			id, ok := funcID[frame]
			if !ok {
				id = uint64(len(funcNames) + 1)
				funcID[frame] = id
				funcNames = append(funcNames, frame)
			}
			locs = append(locs, id) // location id == function id, 1:1
		}
		sw.packed(1, locs)
		vals := make([]uint64, len(s.Values))
		for i, v := range s.Values {
			if v < 0 {
				return nil, fmt.Errorf("prof: encode: negative sample value %d", v)
			}
			vals[i] = uint64(v)
		}
		sw.packed(2, vals)
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var lw protoWriter
			lw.uint(1, intern(k))
			lw.uint(2, intern(s.Labels[k]))
			sw.bytes(3, lw.b)
		}
		w.bytes(2, sw.b)
	}
	for i, name := range funcNames {
		id := uint64(i + 1)
		var lw protoWriter
		lw.uint(1, id)
		var line protoWriter
		line.uint(1, id)
		lw.bytes(4, line.b)
		w.bytes(4, lw.b) // location
		var fw protoWriter
		fw.uint(1, id)
		fw.uint(2, intern(name))
		w.bytes(5, fw.b) // function
	}
	// The period type interns its strings, so it is built before the
	// string table is written.
	var periodType []byte
	if p.PeriodType != (ValueType{}) {
		periodType = valueType(p.PeriodType)
	}
	for _, s := range strtab {
		w.bytes(6, []byte(s))
	}
	w.uint(9, uint64(p.TimeNanos))
	w.uint(10, uint64(p.DurationNanos))
	if periodType != nil {
		w.bytes(11, periodType)
	}
	w.uint(12, uint64(p.Period))

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(w.b); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- aggregation ------------------------------------------------------

// FuncStat is one function's aggregate weight in a profile: Flat is the
// value attributed to samples where the function is the leaf frame, Cum
// the value of every sample whose stack contains it.
type FuncStat struct {
	Name string
	Flat int64
	Cum  int64
}

// TopFuncs aggregates one value dimension per function across the
// profile's samples and returns all functions sorted by flat value
// descending (ties broken by cumulative value, then name, so the order
// is deterministic).
func TopFuncs(p *Profile, valueIndex int) []FuncStat {
	flat := map[string]int64{}
	cum := map[string]int64{}
	for _, s := range p.Samples {
		if valueIndex < 0 || valueIndex >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		v := s.Values[valueIndex]
		flat[s.Stack[0]] += v
		seen := map[string]bool{}
		for _, fn := range s.Stack {
			if !seen[fn] {
				seen[fn] = true
				cum[fn] += v
			}
		}
	}
	out := make([]FuncStat, 0, len(cum))
	for name, c := range cum {
		out = append(out, FuncStat{Name: name, Flat: flat[name], Cum: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		if a.Cum != b.Cum {
			return a.Cum > b.Cum
		}
		return a.Name < b.Name
	})
	return out
}

// Merge concatenates the samples of several profiles into one, labels
// included (cmd/profreport merges every CPU window of a run, then splits
// the result with SplitByLabel). Profiles must
// share a sample-type signature; nil inputs are skipped. DurationNanos
// accumulates; TimeNanos keeps the earliest non-zero stamp.
func Merge(profiles ...*Profile) (*Profile, error) {
	var out *Profile
	for _, p := range profiles {
		if p == nil {
			continue
		}
		if out == nil {
			cp := *p
			cp.Samples = append([]Sample(nil), p.Samples...)
			out = &cp
			continue
		}
		if len(p.SampleTypes) != len(out.SampleTypes) {
			return nil, fmt.Errorf("prof: merge: sample-type mismatch (%d vs %d dimensions)",
				len(out.SampleTypes), len(p.SampleTypes))
		}
		for i, vt := range p.SampleTypes {
			if out.SampleTypes[i] != vt {
				return nil, fmt.Errorf("prof: merge: sample-type mismatch at dimension %d (%v vs %v)",
					i, out.SampleTypes[i], vt)
			}
		}
		out.Samples = append(out.Samples, p.Samples...)
		out.DurationNanos += p.DurationNanos
		if out.TimeNanos == 0 || (p.TimeNanos != 0 && p.TimeNanos < out.TimeNanos) {
			out.TimeNanos = p.TimeNanos
		}
	}
	if out == nil {
		return &Profile{}, nil
	}
	return out, nil
}

// SplitByLabel partitions p's samples by the value of one string label;
// samples without the label go under unlabelled. Each part keeps p's
// sample types, period and window.
func SplitByLabel(p *Profile, key, unlabelled string) map[string]*Profile {
	out := map[string]*Profile{}
	for _, s := range p.Samples {
		v, ok := s.Labels[key]
		if !ok {
			v = unlabelled
		}
		part := out[v]
		if part == nil {
			cp := *p
			cp.Samples = nil
			part = &cp
			out[v] = part
		}
		part.Samples = append(part.Samples, s)
	}
	return out
}
