// Package trace generates the request workloads used in the paper's
// evaluation: flash-crowd bursts and Poisson arrivals for the controlled
// experiments (Table 1), a BurstGPT-like bursty arrival process, and an
// industrial-trace-like mixture matching the published distribution shapes
// (Figure 11). All generators are deterministic for a given seed.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/simclock"
)

// Item is one request specification in a workload.
type Item struct {
	Arrival   simclock.Time
	PromptLen int
	OutputLen int
	// Rate is the client's required consumption rate in tokens/second.
	Rate float64
	// Session and Turn mark multi-turn conversation membership (Session 0 =
	// stateless single-shot request). Turns of one session arrive in order
	// and share a growing prompt prefix: turn t's prompt extends turn t-1's
	// full context, which KV-affinity routers exploit.
	Session int
	Turn    int
}

// Workload is an ordered set of request specifications.
type Workload struct {
	Name  string
	Items []Item
}

// Validate checks arrival ordering and positive lengths.
func (w Workload) Validate() error {
	var prev simclock.Time
	for i, it := range w.Items {
		if it.Arrival < prev {
			return fmt.Errorf("trace %s: item %d arrives at %v before previous %v", w.Name, i, it.Arrival, prev)
		}
		if it.PromptLen < 1 || it.OutputLen < 1 {
			return fmt.Errorf("trace %s: item %d has degenerate lengths (%d,%d)", w.Name, i, it.PromptLen, it.OutputLen)
		}
		prev = it.Arrival
	}
	return nil
}

// Len reports the number of requests.
func (w Workload) Len() int { return len(w.Items) }

// TotalOutputTokens reports the sum of output lengths.
func (w Workload) TotalOutputTokens() int64 {
	var n int64
	for _, it := range w.Items {
		n += int64(it.OutputLen)
	}
	return n
}

// TotalPromptTokens reports the sum of prompt lengths.
func (w Workload) TotalPromptTokens() int64 {
	var n int64
	for _, it := range w.Items {
		n += int64(it.PromptLen)
	}
	return n
}

// Duration reports the arrival span of the workload.
func (w Workload) Duration() simclock.Time {
	if len(w.Items) == 0 {
		return 0
	}
	return w.Items[len(w.Items)-1].Arrival
}

// Merge combines workloads into one, re-sorted by arrival time. Merging is
// stable for equal arrivals.
func Merge(name string, ws ...Workload) Workload {
	n := 0
	for _, w := range ws {
		n += len(w.Items)
	}
	out := Workload{Name: name, Items: slices.Grow([]Item(nil), n)}
	for _, w := range ws {
		out.Items = append(out.Items, w.Items...)
	}
	slices.SortStableFunc(out.Items, func(a, b Item) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return out
}

// Stats summarizes a workload for reporting and distribution checks.
type Stats struct {
	Count        int
	MeanPrompt   float64
	MeanOutput   float64
	MeanRate     float64
	P50Prompt    int
	P99Prompt    int
	P50Output    int
	P99Output    int
	ArrivalsPerS float64
}

// Summarize computes workload statistics.
func (w Workload) Summarize() Stats {
	s := Stats{Count: len(w.Items)}
	if s.Count == 0 {
		return s
	}
	prompts := make([]int, 0, s.Count)
	outputs := make([]int, 0, s.Count)
	var sp, so, sr float64
	for _, it := range w.Items {
		prompts = append(prompts, it.PromptLen)
		outputs = append(outputs, it.OutputLen)
		sp += float64(it.PromptLen)
		so += float64(it.OutputLen)
		sr += it.Rate
	}
	sort.Ints(prompts)
	sort.Ints(outputs)
	s.MeanPrompt = sp / float64(s.Count)
	s.MeanOutput = so / float64(s.Count)
	s.MeanRate = sr / float64(s.Count)
	s.P50Prompt = prompts[s.Count/2]
	s.P99Prompt = prompts[percentileIndex(s.Count, 0.99)]
	s.P50Output = outputs[s.Count/2]
	s.P99Output = outputs[percentileIndex(s.Count, 0.99)]
	if d := w.Duration().Seconds(); d > 0 {
		s.ArrivalsPerS = float64(s.Count) / d
	}
	return s
}

func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
