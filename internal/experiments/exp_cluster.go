package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/trace"
)

// clusterWorkload is the multi-turn spike trace of the cluster study:
// chat sessions with growing shared prefixes, half of them opening in
// periodic flash crowds — the request-burst regime of the paper carried
// to a horizontally scaled deployment.
func clusterWorkload() trace.Workload {
	return trace.Sessions("cluster-sessions", trace.SessionConfig{
		Sessions:   scaled(300),
		Duration:   scaledDur(240),
		SpikeEvery: scaledDur(60),
		Rates:      trace.FixedRate(20),
		Seed:       7,
	})
}

// buildReplica constructs one TokenFlow replica engine on the shared
// cluster clock and fabric.
func buildReplica(dep Deployment) cluster.BuildEngine {
	return buildReplicaKV(dep, engine.TokenFlowKVPolicy())
}

// buildReplicaKV is buildReplica with an explicit KV policy (the fabric
// experiment enables the host-tier prefix cache).
func buildReplicaKV(dep Deployment, kv engine.KVPolicy) cluster.BuildEngine {
	return buildSystem(dep, SystemSpec{"tokenflow", func() (sched.Scheduler, engine.KVPolicy) {
		return core.MustNew(core.DefaultConfig()), kv
	}})
}

// ExpCluster studies horizontal scaling: QoS and P99 TTFT versus replica
// count × routing policy for TokenFlow replicas serving the multi-turn
// spike workload. Session-affinity routing preserves prefix-cache reuse
// that round-robin destroys, which shows up as lower tail TTFT once the
// cluster is load-stressed.
func ExpCluster() (*Table, error) {
	dep := dep4090Llama
	w := clusterWorkload()
	replicaCounts := []int{1, 2, 4}

	type cell struct {
		replicas int
		policy   string
		res      *cluster.Result
		err      error
	}
	var cells []cell
	for _, n := range replicaCounts {
		for _, p := range router.Names() {
			cells = append(cells, cell{replicas: n, policy: p})
		}
	}
	parallel(len(cells), func(i int) {
		pol, err := router.ByName(cells[i].policy)
		if err != nil {
			cells[i].err = err
			return
		}
		cells[i].res, cells[i].err = simulate(cluster.Config{
			Replicas: cells[i].replicas,
			Policy:   pol,
		}, buildReplica(dep), w)
	})

	t := &Table{
		ID:    "Cluster",
		Title: "Multi-replica scaling: routing policy × replica count, TokenFlow replicas, multi-turn spikes",
		Header: []string{"replicas", "router", "QoS", "P99-TTFT", "mean-TTFT",
			"eff-thpt(tok/s)", "imbalance", "prefix-hits"},
	}
	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("cluster %dx %s: %w", c.replicas, c.policy, c.err)
		}
		t.Rows = append(t.Rows, []string{
			fint(int64(c.replicas)),
			c.policy,
			ftps(c.res.Report.QoS),
			fsec(c.res.Report.P99TTFT),
			fsec(c.res.Report.MeanTTFT),
			ftps(c.res.Report.EffectiveThroughput),
			ffloat(c.res.Imbalance, 2),
			fint(c.res.PrefixHits),
		})
	}
	t.Notes = "Expected shape: P99 TTFT falls with replica count; at fixed count, session-affinity " +
		"beats round-robin on tail TTFT by preserving per-replica prefix-cache reuse."
	return t, nil
}
