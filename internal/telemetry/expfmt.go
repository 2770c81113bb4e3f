package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal, strict parser for the Prometheus text exposition format — just
// enough to validate what the Registry emits and to feed the `dylect-served
// top` dashboard. Strictness is the point: the parser rejects samples with
// no HELP/TYPE declaration, histograms with non-monotone cumulative buckets
// or a _count disagreeing with the +Inf bucket, and negative counters. CI
// runs it over a live scrape, so a malformed exposition fails the build
// instead of silently confusing whatever scrapes production.

// Sample is one exposition line: a metric sample with its labels.
type Sample struct {
	// Name is the full sample name, including a histogram's _bucket/_sum/
	// _count suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family: its declared metadata plus every sample that
// followed the declaration.
type Family struct {
	Name    string
	Help    string
	Kind    string
	Samples []Sample
}

// Sum adds up the samples (of the family's base name) whose labels include
// every pair in match; a nil match sums everything. Histogram families sum
// their _count samples, so Sum is "observations matching" for every kind.
func (f *Family) Sum(match map[string]string) float64 {
	name := f.Name
	if f.Kind == KindHistogram {
		name += "_count"
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		if labelsMatch(s.Labels, match) {
			total += s.Value
		}
	}
	return total
}

// Quantile estimates the q-quantile (0..1) of a histogram family from its
// cumulative buckets (linear interpolation within the winning bucket),
// restricted to series matching match. Returns NaN for empty histograms or
// non-histogram families.
func (f *Family) Quantile(q float64, match map[string]string) float64 {
	if f.Kind != KindHistogram {
		return math.NaN()
	}
	// Merge matching series into one cumulative edge -> count curve.
	acc := map[float64]float64{}
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" || !labelsMatch(s.Labels, match) {
			continue
		}
		edge, err := parseLe(s.Labels["le"])
		if err != nil {
			continue
		}
		acc[edge] += s.Value
	}
	edges := make([]float64, 0, len(acc))
	for e := range acc {
		edges = append(edges, e)
	}
	sort.Float64s(edges)
	if len(edges) == 0 {
		return math.NaN()
	}
	total := acc[edges[len(edges)-1]]
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	prevEdge, prevCum := 0.0, 0.0
	for _, e := range edges {
		cum := acc[e]
		if cum >= rank {
			if math.IsInf(e, +1) {
				return prevEdge
			}
			// Guard the interpolation denominator: an all-zero or flat
			// cumulative segment (zero-sample series on a fresh boot, or a
			// merged curve whose edges disagree across series) must not
			// divide by zero — or by a negative step — so any non-increasing
			// segment resolves to the bucket edge itself.
			if cum <= prevCum {
				return e
			}
			return prevEdge + (e-prevEdge)*(rank-prevCum)/(cum-prevCum)
		}
		prevEdge, prevCum = e, cum
	}
	return prevEdge
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// FindFamily returns the named family, or nil.
func FindFamily(fams []*Family, name string) *Family {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ParseExposition parses and validates a text exposition. It returns the
// families in declaration order or the first grammar/consistency violation.
func ParseExposition(data []byte) ([]*Family, error) {
	var fams []*Family
	byName := map[string]*Family{}
	help := map[string]string{}
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
			}
			switch kind {
			case "HELP":
				if _, dup := help[name]; dup {
					return nil, fmt.Errorf("exposition line %d: duplicate HELP for %s", lineNo, name)
				}
				help[name] = rest
			case "TYPE":
				if byName[name] != nil {
					return nil, fmt.Errorf("exposition line %d: duplicate TYPE for %s", lineNo, name)
				}
				if rest != KindCounter && rest != KindGauge && rest != KindHistogram {
					return nil, fmt.Errorf("exposition line %d: unsupported type %q for %s", lineNo, rest, name)
				}
				h, ok := help[name]
				if !ok {
					return nil, fmt.Errorf("exposition line %d: TYPE %s precedes its HELP line", lineNo, name)
				}
				f := &Family{Name: name, Help: h, Kind: rest}
				fams = append(fams, f)
				byName[name] = f
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		f := familyOf(byName, s.Name)
		if f == nil {
			return nil, fmt.Errorf("exposition line %d: sample %s has no HELP/TYPE declaration", lineNo, s.Name)
		}
		if err := checkSampleName(f, s.Name); err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		if f.Kind != KindGauge && (s.Value < 0 || math.IsNaN(s.Value)) {
			return nil, fmt.Errorf("exposition line %d: %s %s is negative or NaN (%v)", lineNo, f.Kind, s.Name, s.Value)
		}
		f.Samples = append(f.Samples, s)
	}
	for _, f := range fams {
		if f.Kind == KindHistogram {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// familyOf resolves a sample name to its declared family, stripping
// histogram suffixes when the base name is a declared histogram.
func familyOf(byName map[string]*Family, sample string) *Family {
	if f := byName[sample]; f != nil {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if f := byName[base]; f != nil && f.Kind == KindHistogram {
			return f
		}
	}
	return nil
}

func checkSampleName(f *Family, sample string) error {
	if f.Kind == KindHistogram {
		switch sample {
		case f.Name + "_bucket", f.Name + "_sum", f.Name + "_count":
			return nil
		}
		return fmt.Errorf("histogram %s has non-histogram sample %s", f.Name, sample)
	}
	if sample != f.Name {
		return fmt.Errorf("%s %s has mismatched sample %s", f.Kind, f.Name, sample)
	}
	return nil
}

// checkHistogram validates every series of a histogram family: le edges
// parse and ascend, cumulative bucket counts are monotone, a +Inf bucket
// exists, and _count/_sum agree with it.
func checkHistogram(f *Family) error {
	type hseries struct {
		edges  []float64
		counts []float64
		sum    *float64
		count  *float64
	}
	series := map[string]*hseries{}
	get := func(labels map[string]string) *hseries {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%q;", k, labels[k])
		}
		s, ok := series[sb.String()]
		if !ok {
			s = &hseries{}
			series[sb.String()] = s
		}
		return s
	}
	for i := range f.Samples {
		smp := &f.Samples[i]
		s := get(smp.Labels)
		switch smp.Name {
		case f.Name + "_bucket":
			edge, err := parseLe(smp.Labels["le"])
			if err != nil {
				return fmt.Errorf("histogram %s: %w", f.Name, err)
			}
			s.edges = append(s.edges, edge)
			s.counts = append(s.counts, smp.Value)
		case f.Name + "_sum":
			v := smp.Value
			s.sum = &v
		case f.Name + "_count":
			v := smp.Value
			s.count = &v
		}
	}
	for sig, s := range series {
		if len(s.edges) == 0 {
			return fmt.Errorf("histogram %s%s has no buckets", f.Name, sig)
		}
		for i := 1; i < len(s.edges); i++ {
			if s.edges[i] <= s.edges[i-1] {
				return fmt.Errorf("histogram %s%s: bucket edges not ascending (%v after %v)",
					f.Name, sig, s.edges[i], s.edges[i-1])
			}
			if s.counts[i] < s.counts[i-1] {
				return fmt.Errorf("histogram %s%s: cumulative bucket counts decrease at le=%v (%v < %v)",
					f.Name, sig, s.edges[i], s.counts[i], s.counts[i-1])
			}
		}
		last := len(s.edges) - 1
		if !math.IsInf(s.edges[last], +1) {
			return fmt.Errorf("histogram %s%s has no +Inf bucket", f.Name, sig)
		}
		if s.count == nil || s.sum == nil {
			return fmt.Errorf("histogram %s%s is missing _sum or _count", f.Name, sig)
		}
		if *s.count != s.counts[last] {
			return fmt.Errorf("histogram %s%s: _count %v disagrees with +Inf bucket %v",
				f.Name, sig, *s.count, s.counts[last])
		}
	}
	return nil
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(+1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparsable le %q", s)
	}
	return v, nil
}

// parseComment parses a "# HELP name text" / "# TYPE name kind" line.
// Other comments are ignored (kind "").
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	kw, tail, _ := strings.Cut(body, " ")
	if kw != "HELP" && kw != "TYPE" {
		return "", "", "", nil
	}
	name, rest, ok := strings.Cut(tail, " ")
	if !ok && kw == "HELP" {
		name, rest = tail, "" // empty help text is legal
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("%s line names invalid metric %q", kw, name)
	}
	if kw == "TYPE" && rest == "" {
		return "", "", "", fmt.Errorf("TYPE line for %s has no kind", name)
	}
	if kw == "HELP" {
		if rest, err = unescapeHelp(rest); err != nil {
			return "", "", "", fmt.Errorf("HELP line for %s: %w", name, err)
		}
	}
	return kw, name, rest, nil
}

// unescapeHelp undoes escapeHelp: HELP text escapes only backslash and line
// feed. Every other byte, a carriage return included, is the text itself.
func unescapeHelp(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		switch {
		case i == len(s):
			return "", fmt.Errorf("dangling escape")
		case s[i] == '\\':
			sb.WriteByte('\\')
		case s[i] == 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}

// parseSample parses one "name{k="v",...} value" line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// A trailing timestamp would be legal Prometheus but our registry never
	// emits one; reject it so wall-clock can't sneak into scrapes.
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("sample %s has %d value fields, want exactly 1 (timestamps are not emitted)", s.Name, len(fields))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %s has unparsable value %q", s.Name, fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block from the front of rest, filling
// into, and returns what follows the closing brace.
func parseLabels(rest string, into map[string]string) (string, error) {
	rest = rest[1:] // consume '{'
	for {
		rest = strings.TrimLeft(rest, " ,")
		if rest == "" {
			return "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("malformed label block near %q", rest)
		}
		name := rest[:eq]
		if !validMetricName(name) {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return "", fmt.Errorf("label %s has unquoted value", name)
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return "", fmt.Errorf("label %s has unterminated value", name)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return "", fmt.Errorf("label %s has dangling escape", name)
				}
				switch rest[0] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Errorf("label %s has unknown escape \\%c", name, rest[0])
				}
				rest = rest[1:]
				continue
			}
			val.WriteByte(c)
		}
		into[name] = val.String()
	}
}
