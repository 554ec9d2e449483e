// Command bench is the repository's benchmark: it runs one workload through
// cluster.New and (*Cluster).Run and reports what the simulator costs on
// the host and what the simulated TokenFlow deployment delivers to
// streaming readers. See README.md for the metrics and workloads.
//
//	bash bench/run.sh --workload burst-stream --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose output fails a check
// prints an error to standard error and exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// minRuns is the fewest measured runs (untraced and traced pairs, with
// --trace 1) whose median a metric reports, even when they overrun
// --seconds.
const minRuns = 3

func main() {
	name := flag.String("workload", "burst-stream", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "host seconds to keep measuring")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *traced))
	}
	// Shard goroutines never outnumber the CPUs.
	shards := 2
	if n := runtime.NumCPU(); n < shards {
		shards = n
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var ms []metric
	var last *outcome
	var runs int
	var err error
	if *traced == 1 {
		ms, last, runs, err = measureLayers(w, *seed, shards, budget)
	} else {
		ms, last, runs, err = measureEndToEnd(w, *seed, shards, budget)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %s seed %d shards %d runs %d requests %d\n",
		w.name, *seed, shards, runs, last.attempted)
	out := map[string]jsonMetric{}
	for _, m := range ms {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{true, runs * last.attempted, runs * last.failed(), out})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureEndToEnd runs the workload untraced until the budget is spent and
// reports the end-to-end metrics: host costs as medians over the runs, and
// the simulated results, which every run must reproduce exactly.
func measureEndToEnd(w workload, seed int64, shards int, budget time.Duration) ([]metric, *outcome, int, error) {
	var first *outcome
	var setup, rate, allocs, bytes []float64
	fits := newBudget(budget)
	runs := 0
	for more := true; more; more = fits() || runs < minRuns {
		runs++
		o, err := runOnce(w, seed, shards, false)
		if err != nil {
			return nil, nil, 0, err
		}
		if first == nil {
			first = o
		} else if err := sameSimulation(first, o); err != nil {
			return nil, nil, 0, err
		}
		fin := float64(o.res.Report.Finished)
		setup = append(setup, o.genS+o.newS)
		rate = append(rate, fin/o.runS)
		allocs = append(allocs, float64(o.mallocs)/fin)
		bytes = append(bytes, float64(o.allocBytes)/fin)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, 0, err
	}
	q := first.shares(w)
	return []metric{
		{"host_req_per_s", median(rate), "1/s"},
		{"setup_s", median(setup), "s"},
		{"allocs_per_req", median(allocs), "count"},
		{"alloc_bytes_per_req", median(bytes), "B"},
		{"peak_rss_mb", rss, "MB"},
		{"sim_ttft_p50_s", first.res.Report.P50TTFT.Seconds(), "s"},
		{"sim_ttft_p99_s", first.res.Report.P99TTFT.Seconds(), "s"},
		{"sim_steady_share", q.steady, "share"},
		{"sim_effective_tput", first.res.Report.EffectiveThroughput, "tok/s"},
		{"sim_tput", first.res.Report.Throughput, "tok/s"},
		{"sim_slo_share", q.slo, "share"},
		{"finish_share", q.finished, "share"},
	}, first, runs, nil
}

// measureLayers alternates untraced and traced runs until the budget is
// spent; the run count it returns counts both. The traced run must simulate
// exactly what the untraced one did. Its layer counts are reported with
// host busy times as medians, and the tracing overhead is the median of
// traced minus untraced run time.
func measureLayers(w workload, seed int64, shards int, budget time.Duration) ([]metric, *outcome, int, error) {
	var last *outcome
	var host [][]metric
	fits := newBudget(budget)
	runs := 0
	for more := true; more; more = fits() || runs < 2*minRuns {
		runs += 2
		plain, err := runOnce(w, seed, shards, false)
		if err != nil {
			return nil, nil, 0, err
		}
		o, err := runOnce(w, seed, shards, true)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := sameSimulation(plain, o); err != nil {
			return nil, nil, 0, fmt.Errorf("traced run differs from untraced: %w", err)
		}
		if last != nil {
			if err := sameSimulation(last, o); err != nil {
				return nil, nil, 0, err
			}
		}
		last = o
		host = append(host, append(o.hostLayers(),
			metric{"cluster.trace_overhead_s", o.runS - plain.runS, "s"}))
	}
	ms := last.countLayers()
	for i, m := range host[0] {
		vs := make([]float64, len(host))
		for r := range host {
			vs[r] = host[r][i].value
		}
		ms = append(ms, metric{m.name, median(vs), m.unit})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms, last, runs, nil
}

// newBudget returns a function reporting whether another repeat, taking
// as long as the last one did, still fits in the budget.
func newBudget(budget time.Duration) func() bool {
	deadline := time.Now().Add(budget)
	last := time.Now()
	return func() bool {
		now := time.Now()
		took := now.Sub(last)
		last = now
		return now.Add(took).Before(deadline)
	}
}

// sameSimulation reports an error unless two runs of one workload and seed
// simulated the same thing.
func sameSimulation(a, b *outcome) error {
	if a.res.EventsProcessed != b.res.EventsProcessed {
		return fmt.Errorf("nondeterministic run: %d events, then %d",
			a.res.EventsProcessed, b.res.EventsProcessed)
	}
	if !reflect.DeepEqual(a.res.Report, b.res.Report) {
		return fmt.Errorf("nondeterministic run: reports differ")
	}
	return nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
