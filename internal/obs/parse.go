package obs

// A parser for the text exposition WriteParsed emits. The serving program
// parses text at one place: a coordinator's scrape of a remote shard's
// /metrics (cluster.HTTPShard.Metrics); in-process readers take
// Registry.Snapshot. It reads the subset of the 0.0.4 text format
// WriteParsed writes (HELP/TYPE comments, counter/gauge/histogram families,
// escaped label values and help text) and is strict about it: a malformed
// line is an error, not a skip, because silently dropping a sample would
// turn a wiring bug into a fake-green view of the cluster.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseText parses a Prometheus text exposition (version 0.0.4, the subset
// WriteParsed emits). Histogram component series (_bucket, _sum, _count)
// are folded back into one ParsedSeries per label set.
func ParseText(r io.Reader) (Parsed, error) {
	out := Parsed{}
	types := map[string]string{}
	helps := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case strings.TrimSpace(text) == "":
			continue
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("obs: parse line %d: malformed TYPE comment %q", line, text)
			}
			types[fields[2]] = fields[3]
			continue
		case strings.HasPrefix(text, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(text, "# HELP "), " ")
			helps[name] = helpUnescaper.Replace(help)
			continue
		case strings.HasPrefix(text, "#"):
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", line, err)
		}
		base, component := splitHistogramSample(name, types)
		typ, ok := types[base]
		if !ok {
			return nil, fmt.Errorf("obs: parse line %d: sample %q before its TYPE comment", line, name)
		}
		f := out[base]
		if f == nil {
			f = &ParsedFamily{Name: base, Help: helps[base], Type: typ}
			out[base] = f
		}
		if typ != typeHistogram {
			s := &ParsedSeries{Labels: labels, Value: value}
			f.Series = append(f.Series, s)
			continue
		}
		le, hasLE := labels["le"]
		delete(labels, "le")
		s := f.lookup(labels)
		switch component {
		case "bucket":
			if !hasLE {
				return nil, fmt.Errorf("obs: parse line %d: histogram bucket without le label", line)
			}
			bound, err := parseBound(le)
			if err != nil {
				return nil, fmt.Errorf("obs: parse line %d: %w", line, err)
			}
			s.Buckets = append(s.Buckets, ParsedBucket{LE: bound, Count: uint64(value)})
		case "sum":
			s.Sum = value
		case "count":
			s.Count = uint64(value)
		default:
			return nil, fmt.Errorf("obs: parse line %d: bare sample %q of histogram family %s", line, name, base)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range out {
		if f.Type != typeHistogram {
			continue
		}
		for _, s := range f.Series {
			sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].LE < s.Buckets[j].LE })
			if err := s.checkHistogram(f.Name); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// splitHistogramSample maps a sample name onto its family: a _bucket/_sum/
// _count suffix belongs to a histogram family when one is declared under the
// trimmed name (a counter legitimately named *_count keeps its full name).
func splitHistogramSample(name string, types map[string]string) (base, component string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		trimmed := strings.TrimSuffix(name, suffix)
		if trimmed != name && types[trimmed] == typeHistogram {
			return trimmed, suffix[1:]
		}
	}
	return name, ""
}

// lookup finds or creates the histogram series with the given labels.
func (f *ParsedFamily) lookup(labels map[string]string) *ParsedSeries {
	if s := f.find(labels); s != nil {
		return s
	}
	s := &ParsedSeries{Labels: labels}
	f.Series = append(f.Series, s)
	return s
}

// checkHistogram verifies the folded series is internally consistent:
// cumulative counts never decrease, the layout closes with +Inf, and the
// +Inf bucket equals _count.
func (s *ParsedSeries) checkHistogram(name string) error {
	if len(s.Buckets) == 0 {
		return fmt.Errorf("obs: histogram %s series with no buckets", name)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.LE, +1) {
		return fmt.Errorf("obs: histogram %s missing +Inf bucket", name)
	}
	var prev uint64
	for _, b := range s.Buckets {
		if b.Count < prev {
			return fmt.Errorf("obs: histogram %s bucket counts not cumulative", name)
		}
		prev = b.Count
	}
	if last.Count != s.Count {
		return fmt.Errorf("obs: histogram %s +Inf bucket %d != count %d", name, last.Count, s.Count)
	}
	return nil
}

// parseSample splits one sample line into name, labels and value.
func parseSample(line string) (string, map[string]string, float64, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	labels := map[string]string{}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest[1:], labels)
		if err != nil {
			return "", nil, 0, fmt.Errorf("sample %q: %w", line, err)
		}
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	return name, labels, value, nil
}

// parseLabels consumes `k="v",...}` into dst and returns the remainder of
// the line. Values may contain the \\, \" and \n escapes the writer emits.
func parseLabels(s string, dst map[string]string) (rest string, err error) {
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return "", fmt.Errorf("malformed label at %q", s)
		}
		key := s[:eq]
		s = s[eq+2:]
		var b strings.Builder
		for {
			if s == "" {
				return "", fmt.Errorf("unterminated label value for %s", key)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c != '\\' {
				b.WriteByte(c)
				continue
			}
			if s == "" {
				return "", fmt.Errorf("dangling escape in label value for %s", key)
			}
			switch s[0] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", fmt.Errorf("unknown escape \\%c in label value for %s", s[0], key)
			}
			s = s[1:]
		}
		dst[key] = b.String()
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
			return s[1:], nil
		default:
			return "", fmt.Errorf("malformed label list at %q", s)
		}
	}
}

// parseBound parses an le label value, accepting the writer's +Inf spelling.
func parseBound(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(+1), nil
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le bound %q: %w", le, err)
	}
	return v, nil
}
