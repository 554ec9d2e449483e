// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate. Each Fig*/Tab* function runs
// the workloads and returns a Table of the same rows/series the paper
// plots; cmd/tokenflow-bench prints them all, and the root bench_test.go
// wraps each in a testing.B benchmark.
//
// Experiment sizes scale with the TOKENFLOW_SCALE environment variable
// (default 1.0 = paper scale); EXPERIMENTS.md records a full-scale run.
package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Scale stretches or shrinks experiment sizes (burst counts, trace
// durations). Initialized from TOKENFLOW_SCALE.
var Scale = scaleFromEnv()

func scaleFromEnv() float64 {
	if v := os.Getenv("TOKENFLOW_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 1.0
}

// scaled applies Scale to a count with a floor of 1.
func scaled(n int) int {
	v := int(float64(n) * Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// scaledDur applies Scale to a duration in seconds.
func scaledDur(sec float64) simclock.Time {
	return simclock.FromSeconds(sec * Scale)
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// Deployment is a (device, model, memory) triple. MaxBatch optionally
// caps decode concurrency (used by the Figure 6 toy).
type Deployment struct {
	GPU         gpu.Spec
	Model       model.Spec
	MemFraction float64
	MaxBatch    int
}

// Paper deployments (§7.1.1). H200 controlled experiments start with
// mem-frac 0.3 (§7.3); the smaller cards use SGLang's 0.9 default.
var (
	depH200Llama   = Deployment{GPU: gpu.H200, Model: model.Llama3_8B, MemFraction: 0.3}
	depH200Qwen32  = Deployment{GPU: gpu.H200, Model: model.Qwen25_32B, MemFraction: 0.9}
	dep4090Llama   = Deployment{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.9}
	depA6000Qwen   = Deployment{GPU: gpu.A6000, Model: model.Qwen25_7B, MemFraction: 0.9}
	depAscendLlama = Deployment{GPU: gpu.Ascend910B, Model: model.Llama3_8B, MemFraction: 0.9}
)

// SystemSpec names a system and constructs its scheduler + KV policy.
type SystemSpec struct {
	Name string
	Make func() (sched.Scheduler, engine.KVPolicy)
}

// Standard system lineup of the evaluation.
func systems() []SystemSpec {
	return []SystemSpec{
		{"sglang-chunked", func() (sched.Scheduler, engine.KVPolicy) {
			return sched.NewSGLangChunked(0), engine.BaselineKVPolicy()
		}},
		{"sglang", func() (sched.Scheduler, engine.KVPolicy) {
			return sched.NewSGLang(), engine.BaselineKVPolicy()
		}},
		{"andes", func() (sched.Scheduler, engine.KVPolicy) {
			return sched.NewAndes(), engine.BaselineKVPolicy()
		}},
		{"tokenflow", func() (sched.Scheduler, engine.KVPolicy) {
			return core.MustNew(core.DefaultConfig()), engine.TokenFlowKVPolicy()
		}},
	}
}

// tokenFlowOnly is the lineup for sensitivity studies.
func tokenFlowWith(cfg core.Config) SystemSpec {
	return SystemSpec{"tokenflow", func() (sched.Scheduler, engine.KVPolicy) {
		return core.MustNew(cfg), engine.TokenFlowKVPolicy()
	}}
}

// buildSystem returns a BuildEngine producing fresh engines of the
// system on the deployment, on the cluster's clock and fabric.
func buildSystem(dep Deployment, spec SystemSpec) cluster.BuildEngine {
	return func(_ int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		s, kv := spec.Make()
		return engine.New(engine.Config{
			GPU:         dep.GPU,
			Model:       dep.Model,
			MemFraction: dep.MemFraction,
			MaxBatch:    dep.MaxBatch,
			Scheduler:   s,
			KV:          kv,
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

// simulate builds a cluster and runs the workload on it.
func simulate(cfg cluster.Config, build cluster.BuildEngine, w trace.Workload) (*cluster.Result, error) {
	cl, err := cluster.New(cfg, build)
	if err != nil {
		return nil, err
	}
	return cl.Run(w)
}

// runOne simulates one system on one workload: one device is a
// one-replica round-robin cluster.
func runOne(dep Deployment, spec SystemSpec, w trace.Workload, sampleEvery time.Duration) (*engine.Result, error) {
	res, err := simulate(cluster.Config{Policy: router.NewRoundRobin(), SampleEvery: sampleEvery},
		buildSystem(dep, spec), w)
	if err != nil {
		return nil, err
	}
	return res.PerReplica[0].Result, nil
}

// parallel runs fn(0) … fn(n-1) each in its own goroutine and waits for
// all of them: every table cell is an independent simulation.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runAll simulates every system on the workload concurrently.
func runAll(dep Deployment, specs []SystemSpec, w trace.Workload, sampleEvery time.Duration) (map[string]*engine.Result, error) {
	res := make([]*engine.Result, len(specs))
	errs := make([]error, len(specs))
	parallel(len(specs), func(i int) {
		res[i], errs[i] = runOne(dep, specs[i], w, sampleEvery)
	})
	results := make(map[string]*engine.Result, len(specs))
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, errs[i])
		}
		results[spec.Name] = res[i]
	}
	return results, nil
}

// Formatting helpers.

func fsec(d time.Duration) string    { return fmt.Sprintf("%.2fs", d.Seconds()) }
func ftps(v float64) string          { return fmt.Sprintf("%.1f", v) }
func fpct(v float64) string          { return fmt.Sprintf("%+.1f%%", v) }
func fint(v int64) string            { return fmt.Sprintf("%d", v) }
func ffloat(v float64, p int) string { return strconv.FormatFloat(v, 'f', p, 64) }

// metricsRow renders the standard four-metric row for a system result.
func metricsRow(name string, r *engine.Result) []string {
	return []string{
		name,
		ftps(r.Report.EffectiveThroughput),
		ftps(r.Report.Throughput),
		fsec(r.Report.MeanTTFT),
		fsec(r.Report.P99TTFT),
	}
}

var metricsHeader = []string{"system", "eff-thpt(tok/s)", "thpt(tok/s)", "mean-TTFT", "P99-TTFT"}
