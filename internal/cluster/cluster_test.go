package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// buildTokenFlow returns a BuildEngine producing fresh TokenFlow engines
// on the shared clock and fabric.
func buildTokenFlow() cluster.BuildEngine {
	return func(_ int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		return engine.New(engine.Config{
			GPU:         gpu.RTX4090,
			Model:       model.Llama3_8B,
			MemFraction: 0.9,
			Scheduler:   core.MustNew(core.DefaultConfig()),
			KV:          engine.TokenFlowKVPolicy(),
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

func sessionWorkload(t *testing.T) trace.Workload {
	t.Helper()
	w := trace.Sessions("test-sessions", trace.SessionConfig{
		Sessions: 24,
		Duration: simclock.FromSeconds(60),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func runPolicy(t *testing.T, replicas int, policy router.Policy, w trace.Workload) *cluster.Result {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Replicas: replicas, Policy: policy}, buildTokenFlow())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterInvariants checks, for every policy, that per-replica results
// decompose the cluster totals exactly.
func TestClusterInvariants(t *testing.T) {
	w := sessionWorkload(t)
	for _, name := range router.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := router.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res := runPolicy(t, 4, pol, w)
			if res.TimedOut {
				t.Fatal("cluster run timed out")
			}
			if res.Report.N != w.Len() {
				t.Fatalf("cluster saw %d requests, workload has %d", res.Report.N, w.Len())
			}
			var routed, n, finished int
			var out, hits int64
			for _, rs := range res.PerReplica {
				routed += rs.Routed
				n += rs.Result.Report.N
				finished += rs.Result.Report.Finished
				out += rs.Result.Report.TotalOut
				hits += rs.Result.PrefixHits
			}
			if routed != w.Len() || n != w.Len() {
				t.Errorf("routed=%d registered=%d, want %d", routed, n, w.Len())
			}
			if finished != res.Report.Finished {
				t.Errorf("per-replica finished sum %d != cluster %d", finished, res.Report.Finished)
			}
			if out != res.Report.TotalOut {
				t.Errorf("per-replica token sum %d != cluster %d", out, res.Report.TotalOut)
			}
			if hits != res.PrefixHits {
				t.Errorf("per-replica prefix hits sum %d != cluster %d", hits, res.PrefixHits)
			}
			if res.Imbalance < 1 {
				t.Errorf("imbalance %v < 1", res.Imbalance)
			}
			for i := 1; i < len(res.Requests); i++ {
				if res.Requests[i].ID <= res.Requests[i-1].ID {
					t.Fatalf("merged requests out of ID order at %d", i)
				}
			}
		})
	}
}

// TestClusterDeterminism checks that two identical runs produce identical
// reports.
func TestClusterDeterminism(t *testing.T) {
	w := sessionWorkload(t)
	a := runPolicy(t, 3, router.NewSessionAffinity(), w)
	b := runPolicy(t, 3, router.NewSessionAffinity(), w)
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Error("cluster runs are not deterministic")
	}
	if !reflect.DeepEqual(a.Imbalance, b.Imbalance) || a.PrefixHits != b.PrefixHits {
		t.Error("cluster routing stats are not deterministic")
	}
}

// TestSingleReplicaMatchesEngine checks that a 1-replica cluster with
// round-robin routing reproduces the standalone engine run exactly.
func TestSingleReplicaMatchesEngine(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 1, router.NewRoundRobin(), w)

	eng, err := buildTokenFlow()(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, solo.Report) {
		t.Errorf("1-replica cluster report differs from engine report:\ncluster: %+v\nengine:  %+v",
			res.Report, solo.Report)
	}
	if res.Makespan != solo.Makespan {
		t.Errorf("makespan %v != %v", res.Makespan, solo.Makespan)
	}
	if res.PrefixHits != solo.PrefixHits {
		t.Errorf("prefix hits %d != %d", res.PrefixHits, solo.PrefixHits)
	}
}

// TestAffinityRoutesTurnsTogether checks that under session-affinity, all
// turns of a session land on one replica when no eviction intervenes.
func TestAffinityRoutesTurnsTogether(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 4, router.NewSessionAffinity(), w)
	// Each non-first turn whose previous turn finished before it arrived
	// should have hit the prefix cache; globally that means a substantial
	// hit count on a think-time-gapped workload.
	turns := 0
	for _, it := range w.Items {
		if it.Turn > 1 {
			turns++
		}
	}
	if res.PrefixHits == 0 {
		t.Fatal("affinity routing produced no prefix-cache hits")
	}
	if res.PrefixHits < int64(turns)/2 {
		t.Errorf("only %d/%d follow-up turns hit the prefix cache", res.PrefixHits, turns)
	}
}

// fixedPolicy routes each request ID to a preassigned replica (testing
// harness for deterministic migration scenarios).
type fixedPolicy struct{ m map[int]int }

func (p *fixedPolicy) Name() string { return "fixed" }
func (p *fixedPolicy) Pick(req router.Request, _ []router.Replica) int {
	return p.m[req.ID]
}

// buildHetero returns a BuildEngine with one H200 replica (index 0) ahead
// of RTX-4090 replicas.
func buildHetero() cluster.BuildEngine {
	return func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		g := gpu.RTX4090
		if i == 0 {
			g = gpu.H200
		}
		return engine.New(engine.Config{
			GPU:         g,
			Model:       model.Llama3_8B,
			MemFraction: 0.9,
			Scheduler:   core.MustNew(core.DefaultConfig()),
			KV:          engine.TokenFlowKVPolicy(),
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

// TestHeterogeneousWeightedRouting: on a mixed H200/4090 pool the
// capacity-weighted policy sends the big replica proportionally more work
// than its small peers, and everything still completes.
func TestHeterogeneousWeightedRouting(t *testing.T) {
	w := sessionWorkload(t)
	cl, err := cluster.New(cluster.Config{
		Replicas: 3,
		Policy:   router.NewWeightedCapacity(),
	}, buildHetero())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Finished != w.Len() {
		t.Fatalf("finished %d/%d", res.Report.Finished, w.Len())
	}
	if h, small := res.PerReplica[0].Routed, res.PerReplica[1].Routed; h <= small {
		t.Errorf("H200 routed %d <= 4090's %d; capacity weighting should load the big replica more",
			h, small)
	}
}

// TestMigrationShipsPinnedPrefix pins a session's context on replica 0,
// routes its second turn to replica 1, and checks that with migration the
// prefix arrives there — the turn hits the cache on a replica that never
// served it — while without migration it recomputes.
func TestMigrationShipsPinnedPrefix(t *testing.T) {
	w := trace.Workload{Name: "migrate", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		{Arrival: simclock.FromSeconds(30), PromptLen: 384, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
	run := func(migrate bool) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 2,
			Policy:   &fixedPolicy{m: map[int]int{0: 0, 1: 1}},
			Migrate:  migrate,
		}, buildTokenFlow())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Finished != 2 {
			t.Fatalf("finished %d/2", res.Report.Finished)
		}
		return res
	}

	with := run(true)
	without := run(false)

	if with.Migrations != 1 || with.MigratedTokens != 320 {
		t.Errorf("migrations = %d (%d tokens), want 1 (320 tokens)",
			with.Migrations, with.MigratedTokens)
	}
	if with.PrefixHits != 1 {
		t.Errorf("migrated run prefix hits = %d, want 1 (hit on the target replica)", with.PrefixHits)
	}
	if without.Migrations != 0 || without.PrefixHits != 0 {
		t.Errorf("migration-off run: migrations=%d hits=%d, want 0/0",
			without.Migrations, without.PrefixHits)
	}
	// Shipping 320 tokens of KV must beat recomputing them.
	mTTFT := with.Report.Requests[1].TTFT
	rTTFT := without.Report.Requests[1].TTFT
	if mTTFT >= rTTFT {
		t.Errorf("migrated turn TTFT %v >= recompute TTFT %v", mTTFT, rTTFT)
	}
}

// TestImbalanceSeriesTracksLoad: sampling produces a per-tick imbalance
// series aligned with the merged samples.
func TestImbalanceSeriesTracksLoad(t *testing.T) {
	w := sessionWorkload(t)
	cl, err := cluster.New(cluster.Config{
		Replicas:    4,
		Policy:      router.NewRoundRobin(),
		SampleEvery: 5 * time.Second,
	}, buildTokenFlow())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ImbalanceSeries) == 0 {
		t.Fatal("sampling enabled but imbalance series empty")
	}
	if len(res.ImbalanceSeries) != len(res.Samples) {
		t.Errorf("imbalance series has %d points, merged samples %d",
			len(res.ImbalanceSeries), len(res.Samples))
	}
	for i, p := range res.ImbalanceSeries {
		if p.Value < 1 {
			t.Fatalf("imbalance point %d = %v < 1", i, p.Value)
		}
		if p.At != res.Samples[i].At {
			t.Fatalf("imbalance point %d at %v, sample at %v", i, p.At, res.Samples[i].At)
		}
	}
}

func TestClusterConfigErrors(t *testing.T) {
	if _, err := cluster.New(cluster.Config{Replicas: 2}, buildTokenFlow()); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: -1, Policy: router.NewRoundRobin()}, buildTokenFlow()); err == nil {
		t.Error("negative replicas should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: 2, Policy: router.NewRoundRobin()}, nil); err == nil {
		t.Error("nil builder should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: 2, Shards: -1, Policy: router.NewRoundRobin()}, buildTokenFlow()); err == nil {
		t.Error("negative shards should fail")
	}
	cl, err := cluster.New(cluster.Config{Replicas: 2, Policy: router.NewRoundRobin()}, buildTokenFlow())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(trace.Workload{Name: "empty"}); err == nil {
		t.Error("empty workload should fail")
	}
}

// TestFullMeshTopologyMatchesDefault is the refactor's equivalence anchor:
// an explicit full-mesh TopologySpec with per-pair dedicated links at the
// default bandwidth must reproduce the nil-topology (pre-fabric) cluster
// results exactly — for a migrating static cluster and for an autoscaled
// one with pre-warming.
func TestFullMeshTopologyMatchesDefault(t *testing.T) {
	w := sessionWorkload(t)

	runStatic := func(topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3,
			Policy:   router.NewSessionAffinity(),
			Migrate:  true,
			Topology: topo,
		}, buildHetero())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := runStatic(nil)
	mesh := runStatic(&fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if !reflect.DeepEqual(def.Report, mesh.Report) {
		t.Errorf("explicit full mesh diverges from default:\ndefault: %+v\nmesh:    %+v",
			def.Report, mesh.Report)
	}
	if def.Migrations != mesh.Migrations || def.MigratedTokens != mesh.MigratedTokens {
		t.Errorf("migrations %d/%d tokens differ from %d/%d",
			def.Migrations, def.MigratedTokens, mesh.Migrations, mesh.MigratedTokens)
	}

	runScaled := func(topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3,
			Policy:   router.NewSessionAffinity(),
			Topology: topo,
			Autoscale: &cluster.AutoscaleConfig{
				Policy: autoscale.NewQueuePressure(autoscale.QueuePressureConfig{}),
				Min:    1, Max: 3,
				Warmup:  2 * time.Second,
				Prewarm: true,
			},
		}, buildTokenFlow())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sdef := runScaled(nil)
	smesh := runScaled(&fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if !reflect.DeepEqual(sdef.Report, smesh.Report) {
		t.Errorf("autoscaled full mesh diverges from default:\ndefault: %+v\nmesh:    %+v",
			sdef.Report, smesh.Report)
	}
	if sdef.Prewarms != smesh.Prewarms || sdef.GPUSeconds != smesh.GPUSeconds {
		t.Errorf("prewarm/GPU-seconds differ: %d/%.1f vs %d/%.1f",
			sdef.Prewarms, sdef.GPUSeconds, smesh.Prewarms, smesh.GPUSeconds)
	}
}

// TestCostModelDeclinesMigrationOnNarrowNIC is the migration cost model's
// acceptance scenario: a divert the always-migrate policy ships over a
// starved shared NIC gets declined by the cost model — recomputing the
// prefix on the target is faster than the queued wire — and the declined
// run ends with strictly better tail TTFT on that topology. On a fat
// interconnect the same cost model still migrates.
func TestCostModelDeclinesMigrationOnNarrowNIC(t *testing.T) {
	w := trace.Workload{Name: "divert", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		{Arrival: simclock.FromSeconds(30), PromptLen: 384, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
	run := func(policy cluster.MigrationPolicy, topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas:        2,
			Policy:          &fixedPolicy{m: map[int]int{0: 0, 1: 1}},
			Migrate:         true,
			MigrationPolicy: policy,
			Topology:        topo,
		}, buildTokenFlow())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Finished != 2 {
			t.Fatalf("finished %d/2", res.Report.Finished)
		}
		return res
	}

	narrow := &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 0.01}
	always := run(cluster.MigrateAlways, narrow)
	cost := run(cluster.MigrateCost, narrow)

	if always.Migrations != 1 {
		t.Fatalf("always-migrate shipped %d migrations, want 1", always.Migrations)
	}
	if cost.Migrations != 0 || cost.MigrationsDeclined != 1 {
		t.Errorf("cost model: %d migrations, %d declined; want 0 and 1",
			cost.Migrations, cost.MigrationsDeclined)
	}
	if cost.Report.P99TTFT >= always.Report.P99TTFT {
		t.Errorf("declining the starved wire should win: cost P99 %v >= always %v",
			cost.Report.P99TTFT, always.Report.P99TTFT)
	}

	// A fat mesh flips the break-even: the same cost model migrates.
	fat := run(cluster.MigrateCost, &fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if fat.Migrations != 1 || fat.MigrationsDeclined != 0 {
		t.Errorf("fat-link cost model: %d migrations, %d declined; want 1 and 0",
			fat.Migrations, fat.MigrationsDeclined)
	}
}

// TestTransferClassLedger: the cluster result carries the fabric's
// per-class ledger, and engine-side traffic (sync, evict, load) lands in
// it alongside interconnect migrations.
func TestTransferClassLedger(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 2, router.NewSessionAffinity(), w)
	classes := map[string]fabric.ClassStats{}
	for _, cs := range res.TransferClasses {
		classes[cs.Class.String()] = cs
	}
	if len(classes) != 9 {
		t.Fatalf("ledger has %d classes: %+v", len(classes), res.TransferClasses)
	}
	if classes["sync"].Bytes == 0 {
		t.Error("write-through traffic missing from the sync class")
	}
}
