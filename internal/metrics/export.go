package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV renders the sampler's time series as CSV: a header of
// "tick" plus one column per selected series key, then one row per
// sample. Nil-safe (writes nothing).
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	header := append([]string{"tick"}, s.keys...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	row := make([]string, 1+len(s.keys))
	for _, sm := range s.samples {
		row[0] = strconv.FormatInt(sm.Tick, 10)
		for i, v := range sm.Values {
			row[1+i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL renders the sampler's time series as JSON Lines: one
// object per sample with the tick and a key→value map. Map keys are
// emitted sorted (encoding/json), so the output is deterministic.
// Nil-safe (writes nothing).
func (s *Sampler) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sm := range s.samples {
		vals := make(map[string]float64, len(s.keys))
		for i, k := range s.keys {
			vals[k] = sm.Values[i]
		}
		if err := enc.Encode(struct {
			Tick   int64              `json:"tick"`
			Values map[string]float64 `json:"values"`
		}{Tick: sm.Tick, Values: vals}); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders a one-shot Prometheus-style text snapshot of
// every registered series' current cumulative value:
//
//	# TYPE ring_link_util gauge
//	ring_link_util{link="L0"} 0.58
//
// Series sharing a name form one group under one TYPE comment, as the
// exposition format requires, however their registrations
// interleaved: groups in the order of each name's first registration,
// series in registration order within a group. Nil-safe (writes
// nothing), and safe to call concurrently with counter updates and
// registrations (it renders a snapshot of the series registered at
// entry).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	var names []string
	groups := map[string][]*Series{}
	for _, s := range r.Series() {
		if _, seen := groups[s.Name]; !seen {
			names = append(names, s.Name)
		}
		groups[s.Name] = append(groups[s.Name], s)
	}
	for _, name := range names {
		group := groups[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].Kind); err != nil {
			return err
		}
		for _, s := range group {
			if s.Kind == KindHistogram {
				if err := writeHistogram(w, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				s.Name, s.Labels.promString(),
				strconv.FormatFloat(s.Value(), 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series in Prometheus exposition
// form: cumulative _bucket counts with "le" bounds (including +Inf),
// then _sum and _count.
func writeHistogram(w io.Writer, s *Series) error {
	h := s.Hist()
	counts := h.BucketCounts()
	bounds := h.Bounds()
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			s.Name, s.Labels.promString([2]string{"le", le}), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		s.Name, s.Labels.promString(),
		strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		s.Name, s.Labels.promString(), h.Count())
	return err
}
