package main

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// deployment is the per-replica serving stack, the fields of
// tokenflow.Config a workload sets (System is always TokenFlow).
type deployment struct {
	GPU             string
	Model           string
	MemFraction     float64
	HostPrefixCache bool
}

// workload is one benchmark scenario: a seeded trace generator, the cluster
// it runs on, and the simulated TTFT limit of its sim_slo_share.
type workload struct {
	name string
	dep  deployment
	// ttftLimit is the per-request TTFT a streaming reader tolerates on
	// this workload; a request meets the SLO when it finishes within it
	// and never stalls.
	ttftLimit time.Duration
	gen       func(seed int64) trace.Workload
	// config returns a fresh cluster config: policies keep state, so every
	// run gets new instances.
	config func(shards int) cluster.Config
	// bypass asserts what the workload is predicted not to exercise.
	bypass func(o *outcome) error
}

var workloads = []workload{
	{
		// The paper's headline regime: one H200 under BurstGPT-like arrivals
		// with periodic flash crowds and 20 tok/s readers. Preemption, KV
		// offload and resume, and per-token delivery do the work; no index,
		// autoscaler, interconnect or shard barrier runs, and the router is
		// the trivial single-replica round robin.
		name:      "burst-stream",
		dep:       deployment{GPU: "H200", Model: "Llama3-8B", MemFraction: 0.3},
		ttftLimit: 5 * time.Second,
		gen: func(seed int64) trace.Workload {
			return trace.BurstGPT("burst-stream", trace.BurstGPTConfig{
				Duration:   simclock.FromSeconds(600),
				BaseRate:   3,
				GammaShape: 0.35,
				SpikeEvery: simclock.FromSeconds(30),
				SpikeSize:  300,
				Lengths:    trace.ShareGPTLengths(),
				Rates:      trace.FixedRate(20),
				Seed:       seed,
			})
		},
		config: func(int) cluster.Config {
			return cluster.Config{Replicas: 1, Policy: router.NewRoundRobin()}
		},
		bypass: singleReplicaBypass,
	},
	{
		// The routed, barriered path real configs run: indexed session
		// affinity over a lagged prefix index, cost-gated migration on
		// shared NICs, the host prefix cache, and SLO-target autoscaling
		// with pre-warm, on 2 shards.
		name:      "sessions-routed",
		dep:       deployment{GPU: "RTX-4090", Model: "Llama3-8B", MemFraction: 0.9, HostPrefixCache: true},
		ttftLimit: 2 * time.Second,
		gen: func(seed int64) trace.Workload {
			return trace.Sessions("sessions-routed", trace.SessionConfig{
				Sessions:   3000,
				Duration:   simclock.FromSeconds(2100),
				SpikeEvery: simclock.FromSeconds(60),
				Rates:      trace.FixedRate(20),
				Seed:       seed,
			})
		},
		config: func(shards int) cluster.Config {
			return cluster.Config{
				Replicas:        8,
				Policy:          router.NewIndexedSessionAffinity(),
				Shards:          shards,
				Migrate:         true,
				MigrationPolicy: cluster.MigrateCost,
				Topology:        &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 10},
				PrefixIndex:     &prefixindex.Spec{PropagationDelay: 50 * time.Millisecond},
				Autoscale: &cluster.AutoscaleConfig{
					Policy:  autoscale.NewSLOTarget(autoscale.SLOTargetConfig{TargetP99: 2 * time.Second}),
					Min:     2,
					Max:     8,
					Initial: 4,
					Warmup:  8 * time.Second,
					Prewarm: true,
				},
			}
		},
		bypass: routedBypass,
	},
	{
		// The barrier-free fast path: a static round-robin pool on 2 shards
		// with short turns, instant consumers and deep per-replica queues.
		// The scheduler's local search dominates; router, delivery events
		// and interconnect do nothing.
		name:      "sessions-dense",
		dep:       deployment{GPU: "RTX-4090", Model: "Llama3-8B", MemFraction: 0.9},
		ttftLimit: 30 * time.Second,
		gen: func(seed int64) trace.Workload {
			return trace.Sessions("sessions-dense", trace.SessionConfig{
				Sessions:        8000,
				Duration:        simclock.FromSeconds(60),
				FirstPromptMean: 128, FirstPromptStd: 32,
				FollowupMean: 32, FollowupStd: 8,
				OutputMean: 32, OutputStd: 8,
				MinLen: 16, MaxLen: 512,
				ThinkMeanSeconds: 2,
				Rates:            trace.FixedRate(0),
				Seed:             seed,
			})
		},
		config: func(shards int) cluster.Config {
			return cluster.Config{Replicas: 16, Policy: router.NewRoundRobin(), Shards: shards}
		},
		bypass: denseBypass,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// singleReplicaBypass: one replica means no prefix index, no autoscaler and
// no interconnect traffic. The cluster still routes every arrival, so the
// round-robin policy makes exactly one trivial pick per request.
func singleReplicaBypass(o *outcome) error {
	if err := staticBypass(o); err != nil {
		return err
	}
	if o.tr != nil && o.tr.pick.calls != int64(o.attempted) {
		return fmt.Errorf("router picked %d times for %d arrivals", o.tr.pick.calls, o.attempted)
	}
	return nil
}

// denseBypass: a sharded static round-robin cluster takes the barrier-free
// fast path, where the router is never asked, and instant consumers never
// stall.
func denseBypass(o *outcome) error {
	if err := staticBypass(o); err != nil {
		return err
	}
	if o.tr != nil && o.shards > 1 && o.tr.pick.calls != 0 {
		return fmt.Errorf("round-robin cluster left the fast path: %d router picks", o.tr.pick.calls)
	}
	if p99 := o.rebufferP99(); p99 != 0 {
		return fmt.Errorf("instant consumers stalled: P99 rebuffer %gs", p99)
	}
	return nil
}

// staticBypass: no index, no autoscaler, nothing on the interconnect.
func staticBypass(o *outcome) error {
	if o.res.PrefixIndex != nil {
		return fmt.Errorf("static cluster built a prefix index")
	}
	if o.tr != nil && o.tr.scale != nil {
		return fmt.Errorf("static cluster ran an autoscaler")
	}
	if n := o.interconnectBytes(); n != 0 {
		return fmt.Errorf("static cluster moved %d interconnect bytes", n)
	}
	return nil
}

// routedBypass asserts the opposite: the router, the index and the
// autoscaler all did work.
func routedBypass(o *outcome) error {
	if st := o.res.PrefixIndex; st == nil || st.Published == 0 {
		return fmt.Errorf("routed cluster published nothing to the prefix index")
	}
	if o.tr != nil && (o.tr.pick.calls == 0 || o.tr.scale.calls == 0) {
		return fmt.Errorf("routed cluster made %d picks and %d autoscale decisions",
			o.tr.pick.calls, o.tr.scale.calls)
	}
	return nil
}
