package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/simclock"
)

// poolMix names a heterogeneous replica layout: one gpu.Spec +
// mem-fraction pair per replica.
type poolMix struct {
	name  string
	gpus  []gpu.Spec
	fracs []float64
}

// heteroMixes are the studied pools: a homogeneous small baseline, a
// homogeneous big baseline, and the imbalanced mix where capacity
// weighting and migration earn their keep. The small cards run memory-
// tight (0.75 leaves ~15k KV tokens) so prefix residency is contended.
func heteroMixes() []poolMix {
	return []poolMix{
		{"4x4090", []gpu.Spec{gpu.RTX4090, gpu.RTX4090, gpu.RTX4090, gpu.RTX4090},
			[]float64{0.75, 0.75, 0.75, 0.75}},
		{"2xH200", []gpu.Spec{gpu.H200, gpu.H200}, []float64{0.3, 0.3}},
		{"H200+3x4090", []gpu.Spec{gpu.H200, gpu.RTX4090, gpu.RTX4090, gpu.RTX4090},
			[]float64{0.3, 0.75, 0.75, 0.75}},
	}
}

// buildMix constructs one TokenFlow replica per mix slot on the shared
// cluster clock.
func buildMix(mix poolMix) cluster.BuildEngine {
	return buildMixKV(mix, engine.TokenFlowKVPolicy())
}

// buildMixKV is buildMix with an explicit KV policy (the fabric experiment
// enables the host-tier prefix cache).
func buildMixKV(mix poolMix, kv engine.KVPolicy) cluster.BuildEngine {
	return func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		return engine.New(engine.Config{
			GPU:         mix.gpus[i],
			Model:       model.Llama3_8B,
			MemFraction: mix.fracs[i],
			Scheduler:   core.MustNew(core.DefaultConfig()),
			KV:          kv,
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

// ExpHetero studies heterogeneous pools under the unified residency
// model: QoS and tail TTFT versus pool mix × routing policy, with
// cross-replica KV migration toggled for the affinity policy. Expected
// shape: on the imbalanced mix, capacity weighting beats plain
// least-queue-style balancing, and affinity+migration recovers the
// prefix reuse that affinity alone loses when the small replicas
// overflow — with prefix residency (pinned pages, evictions) now honestly
// charged to every pool.
func ExpHetero() (*Table, error) {
	w := clusterWorkload()

	type variant struct {
		policy  string
		migrate bool
	}
	variants := []variant{
		{router.NameRoundRobin, false},
		{router.NameWeightedCapacity, false},
		{router.NameSessionAffinity, false},
		{router.NameSessionAffinity, true},
	}

	type cell struct {
		mix poolMix
		v   variant
		res *cluster.Result
		err error
	}
	var cells []cell
	for _, mix := range heteroMixes() {
		for _, v := range variants {
			cells = append(cells, cell{mix: mix, v: v})
		}
	}
	parallel(len(cells), func(i int) {
		pol, err := router.ByName(cells[i].v.policy)
		if err != nil {
			cells[i].err = err
			return
		}
		cells[i].res, cells[i].err = simulate(cluster.Config{
			Replicas: len(cells[i].mix.gpus),
			Policy:   pol,
			Migrate:  cells[i].v.migrate,
		}, buildMix(cells[i].mix), w)
	})

	t := &Table{
		ID: "Hetero",
		Title: "Heterogeneous pools: routing policy × pool mix × KV migration, " +
			"TokenFlow replicas, multi-turn spikes",
		Header: []string{"pool", "router", "migrate", "QoS", "P99-TTFT", "mean-TTFT",
			"imbalance", "prefix-hits", "pin-evict", "peak-pinned", "migrations"},
	}
	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("hetero %s %s: %w", c.mix.name, c.v.policy, c.err)
		}
		var evict, peak int64
		for _, rs := range c.res.PerReplica {
			evict += rs.Result.KV.PrefixEvictions
			peak += int64(rs.Result.KV.PeakPinnedPages)
		}
		mig := "off"
		if c.v.migrate {
			mig = "on"
		}
		t.Rows = append(t.Rows, []string{
			c.mix.name,
			c.v.policy,
			mig,
			ftps(c.res.Report.QoS),
			fsec(c.res.Report.P99TTFT),
			fsec(c.res.Report.MeanTTFT),
			ffloat(c.res.Imbalance, 2),
			fint(c.res.PrefixHits),
			fint(evict),
			fint(peak),
			fint(c.res.Migrations),
		})
	}
	t.Notes = "Expected shape: on the imbalanced mix, weighted-capacity beats round-robin on tail TTFT; " +
		"session-affinity with migration beats migration-off by shipping pinned prefixes instead of " +
		"recomputing them. Pinned pages > 0 everywhere: prefix residency is charged to the pools."
	return t, nil
}
