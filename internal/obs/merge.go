package obs

// Scatter/gather support for the sharded lake: a cluster coordinator
// gathers every shard's typed families — an in-process shard's
// Registry.Snapshot, a remote shard's /metrics through ParseText — and
// merges them here into one cluster-wide view. Merge rules:
//
//   - counters and histograms are summed across shards per label set —
//     they are monotone totals, so the sum is the cluster total;
//   - gauges are point-in-time readings that cannot be meaningfully
//     summed, so each shard's gauge series instead gains a shard="<name>"
//     label and survives individually;
//   - a pass-through part (empty shard name, used for the coordinator's
//     own registry) contributes its gauges unlabelled.
//
// The merge is deterministic: parts are processed in shard-name order, so
// float64 sums accumulate in one fixed order no matter how the scrapes
// raced. A family's help text comes from the first part that has the family.
// WriteParsed renders the result.

import (
	"fmt"
	"sort"
)

// ShardExposition is one part to merge: a shard name and its families. An
// empty Shard marks a pass-through part whose gauges keep their labels
// as-is.
type ShardExposition struct {
	Shard  string
	Parsed Parsed
}

// MergeExpositions merges per-shard expositions into one cluster view
// under the rules above. It errors on a family declared with different
// types or histogram bucket layouts across shards, and on gauge series
// that would collide after labelling — silent clobbering would make the
// merged view lie.
func MergeExpositions(parts []ShardExposition) (Parsed, error) {
	sorted := append([]ShardExposition(nil), parts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	out := Parsed{}
	for _, part := range sorted {
		names := make([]string, 0, len(part.Parsed))
		for name := range part.Parsed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			src := part.Parsed[name]
			dst := out[name]
			if dst == nil {
				dst = &ParsedFamily{Name: name, Help: src.Help, Type: src.Type}
				out[name] = dst
			}
			if dst.Type != src.Type {
				return nil, fmt.Errorf("obs: merge: family %s is %s on shard %q but %s elsewhere",
					name, src.Type, part.Shard, dst.Type)
			}
			for _, s := range src.Series {
				if err := mergeSeries(dst, part.Shard, s); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// mergeSeries folds one source series into the destination family.
func mergeSeries(dst *ParsedFamily, shard string, s *ParsedSeries) error {
	switch dst.Type {
	case typeGauge:
		labels := cloneLabels(s.Labels)
		if shard != "" {
			if _, taken := labels["shard"]; !taken {
				labels["shard"] = shard
			}
		}
		if dst.find(labels) != nil {
			return fmt.Errorf("obs: merge: duplicate gauge series %s%s", dst.Name, mapKey(labels))
		}
		dst.Series = append(dst.Series, &ParsedSeries{Labels: labels, Value: s.Value})
		return nil
	case typeCounter:
		if have := dst.find(s.Labels); have != nil {
			have.Value += s.Value
			return nil
		}
		dst.Series = append(dst.Series, &ParsedSeries{Labels: cloneLabels(s.Labels), Value: s.Value})
		return nil
	case typeHistogram:
		have := dst.find(s.Labels)
		if have == nil {
			cp := &ParsedSeries{
				Labels:  cloneLabels(s.Labels),
				Buckets: append([]ParsedBucket(nil), s.Buckets...),
				Sum:     s.Sum,
				Count:   s.Count,
			}
			dst.Series = append(dst.Series, cp)
			return nil
		}
		if len(have.Buckets) != len(s.Buckets) {
			return fmt.Errorf("obs: merge: histogram %s has %d buckets on shard %q, %d elsewhere",
				dst.Name, len(s.Buckets), shard, len(have.Buckets))
		}
		for i := range s.Buckets {
			if have.Buckets[i].LE != s.Buckets[i].LE {
				return fmt.Errorf("obs: merge: histogram %s bucket layouts differ at le=%v vs le=%v",
					dst.Name, s.Buckets[i].LE, have.Buckets[i].LE)
			}
			// Cumulative counts of identical layouts sum bucket-by-bucket.
			have.Buckets[i].Count += s.Buckets[i].Count
		}
		have.Sum += s.Sum
		have.Count += s.Count
		return nil
	default:
		return fmt.Errorf("obs: merge: family %s has unsupported type %q", dst.Name, dst.Type)
	}
}

func cloneLabels(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		out[k] = v
	}
	return out
}
