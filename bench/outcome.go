package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	simmetrics "repro/internal/metrics"
)

// outcome is one run of a workload: the cluster result plus the host costs
// measured around it.
type outcome struct {
	attempted int
	shards    int
	res       *cluster.Result
	tr        *tracer

	genS, newS, runS    float64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseS, gcCPUS    float64
	cpuS                float64
}

// runOnce generates the workload, builds the cluster and runs it, then
// checks the result.
func runOnce(w workload, seed int64, shards int, traced bool) (*outcome, error) {
	o := &outcome{shards: shards}
	start := time.Now()
	tw := w.gen(seed)
	o.genS = time.Since(start).Seconds()
	o.attempted = tw.Len()
	cfg := w.config(shards)
	if traced {
		o.tr = &tracer{}
		o.tr.instrument(&cfg)
	}
	start = time.Now()
	cl, err := cluster.New(cfg, buildEngine(w.dep, o.tr))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o.newS = time.Since(start).Seconds()

	// Every run starts from a collected heap, so the garbage of the last
	// one is not charged to this one.
	runtime.GC()
	var before, after runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&before)
	start = time.Now()
	res, err := cl.Run(tw)
	o.runS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	cpu1 := readCPU()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o.res = res
	o.mallocs = after.Mallocs - before.Mallocs
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.gcCycles = after.NumGC - before.NumGC
	o.gcPauseS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	o.gcCPUS = cpu1.gc - cpu0.gc
	o.cpuS = cpu1.total - cpu0.total
	if err := o.check(w); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	return o, nil
}

// check validates the run's output: the cluster's invariant laws hold, the
// run finished before its deadline, every attempted request is accounted
// for, and the workload bypassed what it is predicted to bypass.
func (o *outcome) check(w workload) error {
	res := o.res
	if err := cluster.CheckInvariants(res, o.attempted); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	if res.TimedOut {
		return fmt.Errorf("run timed out at %s", res.Makespan)
	}
	if got := res.Report.N + int(res.GatewayShed); got != o.attempted {
		return fmt.Errorf("%d requests reported plus shed, %d attempted", got, o.attempted)
	}
	if res.Report.Finished == 0 {
		return fmt.Errorf("no request finished")
	}
	return w.bypass(o)
}

// failed counts attempted requests that did not finish: shed at the
// gateway or out of retries.
func (o *outcome) failed() int {
	return o.attempted - o.res.Report.Finished
}

// shares are the streaming shares over attempted requests; a request that
// did not finish counts as a miss in each.
type shares struct {
	finished, steady, slo float64
}

func (o *outcome) shares(w workload) shares {
	var q shares
	for _, m := range o.res.Report.Requests {
		if !m.Finished {
			continue
		}
		q.finished++
		if m.Rebuffer == 0 {
			q.steady++
			if m.TTFT <= w.ttftLimit {
				q.slo++
			}
		}
	}
	n := float64(o.attempted)
	return shares{q.finished / n, q.steady / n, q.slo / n}
}

// rebufferP99 is the P99 of per-request stall time, in simulated seconds.
func (o *outcome) rebufferP99() float64 {
	var stalls []time.Duration
	for _, m := range o.res.Report.Requests {
		stalls = append(stalls, m.Rebuffer)
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
	return simmetrics.Percentile(stalls, 0.99).Seconds()
}

// classes maps each fabric class name to its totals.
func (o *outcome) classes() map[string]fabric.ClassStats {
	out := map[string]fabric.ClassStats{}
	for _, cs := range o.res.TransferClasses {
		out[cs.Class.String()] = cs
	}
	return out
}

// interconnectBytes totals the bytes moved between replicas.
func (o *outcome) interconnectBytes() int64 {
	cs := o.classes()
	var n int64
	for _, c := range []string{"migrate", "prewarm", "drain", "replicate"} {
		n += cs[c].Bytes
	}
	return n
}

// hostLayers are the traced run's host-time layer metrics.
func (o *outcome) hostLayers() []metric {
	tr := o.tr
	var dCalls int64
	var dBusy time.Duration
	for _, s := range tr.scheds {
		dCalls += s.calls
		dBusy += s.busy
	}
	ms := []metric{
		{"trace.gen_s", o.genS, "s"},
		{"cluster.new_s", o.newS, "s"},
		{"cluster.run_s", o.runS, "s"},
		{"core.decide_s", dBusy.Seconds(), "s"},
		{"core.decide_ns_per_call", perCall(dBusy, dCalls), "ns"},
		{"router.pick_s", tr.pick.busy.Seconds(), "s"},
		{"router.pick_ns_per_call", perCall(tr.pick.busy, tr.pick.calls), "ns"},
		{"simclock.host_ns_per_event", o.runS * 1e9 / float64(o.res.EventsProcessed), "ns"},
		{"runtime.gc_pause_s", o.gcPauseS, "s"},
		{"runtime.gc_cpu_fraction", o.gcCPUS / o.cpuS, "share"},
	}
	var aBusy time.Duration
	if tr.scale != nil {
		aBusy = tr.scale.busy
	}
	return append(ms, metric{"autoscale.decide_s", aBusy.Seconds(), "s"})
}

func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

// countLayers are the traced run's per-layer counts, read from the
// program's public results after the run.
func (o *outcome) countLayers() []metric {
	res, tr := o.res, o.tr
	var dCalls int64
	var full, light, fallback, swaps int64
	for _, s := range tr.scheds {
		dCalls += s.calls
		full += s.core.FullReschedules
		light += s.core.LightPasses
		fallback += s.core.FallbackPasses
		swaps += s.core.SwapsApplied
	}
	var iters, prefill, decode, mixed int64
	var stall time.Duration
	var evictions, loads, bEvicted, bLoaded, bSynced, pEvictions, reloads int64
	peakPinned := 0.0
	for _, rs := range res.PerReplica {
		r := rs.Result
		iters += r.Iterations
		prefill += r.PrefillIters
		decode += r.DecodeIters
		mixed += r.MixedIters
		stall += r.BoundaryStall
		kv := r.KV
		evictions += kv.Evictions
		loads += kv.Loads
		bEvicted += kv.BytesEvicted
		bLoaded += kv.BytesLoaded
		bSynced += kv.BytesSynced
		pEvictions += kv.PrefixEvictions
		reloads += kv.HostReloads
		if kv.PoolPages > 0 {
			peakPinned = math.Max(peakPinned, float64(kv.PeakPinnedPages)/float64(kv.PoolPages))
		}
	}
	n := float64(o.attempted)
	ms := []metric{
		{"trace.requests", n, "count"},
		{"core.decide_calls", float64(dCalls), "count"},
		{"core.full_passes", float64(full), "count"},
		{"core.light_passes", float64(light), "count"},
		{"core.fallback_passes", float64(fallback), "count"},
		{"core.swaps", float64(swaps), "count"},
		{"core.preemptions", float64(res.Report.Preemptions), "count"},
		{"engine.iterations", float64(iters), "count"},
		{"engine.prefill_iters", float64(prefill), "count"},
		{"engine.decode_iters", float64(decode), "count"},
		{"engine.mixed_iters", float64(mixed), "count"},
		{"engine.boundary_stall_sim_s", stall.Seconds(), "s"},
		{"engine.rebuffer_p99_sim_s", o.rebufferP99(), "s"},
		{"simclock.events", float64(res.EventsProcessed), "count"},
		{"simclock.events_per_req", float64(res.EventsProcessed) / n, "count"},
		{"kvcache.evictions", float64(evictions), "count"},
		{"kvcache.loads", float64(loads), "count"},
		{"kvcache.bytes_evicted", float64(bEvicted), "B"},
		{"kvcache.bytes_loaded", float64(bLoaded), "B"},
		{"kvcache.bytes_synced", float64(bSynced), "B"},
		{"kvcache.prefix_hit_share", float64(res.PrefixHits) / n, "share"},
		{"kvcache.prefix_evictions", float64(pEvictions), "count"},
		{"kvcache.host_reloads", float64(reloads), "count"},
		{"kvcache.peak_pinned_share", peakPinned, "share"},
		{"router.pick_calls", float64(tr.pick.calls), "count"},
		{"cluster.migrations", float64(res.Migrations), "count"},
		{"cluster.migrations_declined", float64(res.MigrationsDeclined), "count"},
		{"cluster.imbalance", res.Imbalance, "ratio"},
		{"runtime.gc_cycles", float64(o.gcCycles), "count"},
	}
	cs := o.classes()
	for _, c := range []string{"sync", "evict", "load", "reload", "migrate", "prewarm", "drain"} {
		ms = append(ms,
			metric{"fabric." + c + ".bytes", float64(cs[c].Bytes), "B"},
			metric{"fabric." + c + ".busy_sim_s", cs[c].Busy.Seconds(), "s"})
	}
	var idx struct{ published, dropped, stale, hitShare float64 }
	if st := res.PrefixIndex; st != nil {
		idx.published, idx.dropped, idx.stale = float64(st.Published), float64(st.Dropped), float64(st.StaleFallbacks)
		decisions := st.AffinityHits + st.AffinityMisses + st.StaleFallbacks + st.HeadroomFallbacks + st.OverloadFallbacks
		if decisions > 0 {
			idx.hitShare = float64(st.AffinityHits) / float64(decisions)
		}
	}
	ms = append(ms,
		metric{"prefixindex.published", idx.published, "count"},
		metric{"prefixindex.dropped", idx.dropped, "count"},
		metric{"prefixindex.affinity_hit_share", idx.hitShare, "share"},
		metric{"prefixindex.stale_fallbacks", idx.stale, "count"})
	var aCalls int64
	if tr.scale != nil {
		aCalls = tr.scale.calls
	}
	// Reactivations count as scale-ups, as tokenflow.ClusterResult counts them.
	var ups, downs int
	for _, ev := range res.ScaleEvents {
		switch ev.Kind {
		case cluster.ScaleWarmup, cluster.ScaleReactivate:
			ups++
		case cluster.ScaleDrain:
			downs++
		}
	}
	return append(ms,
		metric{"autoscale.decide_calls", float64(aCalls), "count"},
		metric{"autoscale.scale_ups", float64(ups), "count"},
		metric{"autoscale.scale_downs", float64(downs), "count"},
		metric{"autoscale.gpu_seconds", res.GPUSeconds, "s"},
		metric{"autoscale.warmup_stalls", float64(res.WarmupStalls), "count"})
}

// cpuTimes are the process's cumulative CPU seconds, total and in GC.
type cpuTimes struct{ total, gc float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64()}
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
