package tokenflow_test

import (
	"testing"

	"repro/tokenflow"
)

// sizingInput decodes fuzz bytes into the pool-sizing knobs of a
// ClusterConfig; missing bytes read as zero.
type sizingInput struct {
	data []byte
}

func (in *sizingInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// small maps a byte onto [-2, 5]: zero, the defaults, and negatives all
// show up, while pools stay cheap to build.
func (in *sizingInput) small() int { return int(in.byte()%8) - 2 }

func decodeSizing(data []byte) tokenflow.ClusterConfig {
	in := &sizingInput{data: data}
	cfg := tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: in.small(),
		Router:   tokenflow.RouterLeastQueue,
	}
	for n := in.byte() % 3; n > 0; n-- {
		cfg.ReplicaSpecs = append(cfg.ReplicaSpecs, tokenflow.ReplicaSpec{Count: in.small()})
	}
	flags := in.byte()
	lo, hi, initial := in.small(), in.small(), in.small()
	if flags&1 != 0 {
		cfg.Autoscale = &tokenflow.AutoscaleSpec{
			MinReplicas:     lo,
			MaxReplicas:     hi,
			InitialReplicas: initial,
			ScaleToZero:     flags&2 != 0,
			WarmupSeconds:   1,
		}
	}
	cfg.Shards = in.small()
	cfg.MaxSimTimeSeconds = float64(int(in.byte()%4)-1) * 30
	return cfg
}

// expectedPool is the sizing rule written out independently of the
// simulator: the pool size a valid config builds, or ok=false when the
// config must be rejected.
func expectedPool(cfg tokenflow.ClusterConfig) (pool int, ok bool) {
	if cfg.Shards < 0 || cfg.MaxSimTimeSeconds < 0 {
		return 0, false
	}
	layout := cfg.Replicas
	if layout == 0 {
		layout = 1
	}
	if len(cfg.ReplicaSpecs) > 0 {
		layout = 0
		for _, s := range cfg.ReplicaSpecs {
			if s.Count < 0 {
				return 0, false
			}
			layout += max(s.Count, 1)
		}
	}
	if layout < 1 {
		return 0, false
	}
	a := cfg.Autoscale
	if a == nil {
		return layout, true
	}
	lo := a.MinReplicas
	switch {
	case a.ScaleToZero:
		lo = 0
	case lo == 0:
		lo = 1
	case lo < 0:
		return 0, false
	}
	if a.MaxReplicas < 0 || a.InitialReplicas < 0 || (a.MaxReplicas > 0 && a.MaxReplicas < lo) {
		return 0, false
	}
	hi := a.MaxReplicas
	if hi == 0 {
		hi = max(layout, lo)
	}
	initial := a.InitialReplicas
	if initial == 0 {
		initial = lo
	}
	if initial < lo || initial > hi {
		return 0, false
	}
	if len(cfg.ReplicaSpecs) > 0 && layout != hi {
		return 0, false
	}
	return hi, true
}

// FuzzRunClusterSizing drives RunCluster with arbitrary replica counts,
// heterogeneous layouts, autoscale bounds, shard counts and sim-time caps
// on a 3-request workload (seeds in testdata/fuzz/FuzzRunClusterSizing).
// No input may panic; a config the sizing rule rejects must return an
// error, and one it accepts must run and build exactly the pool the rule
// sizes.
func FuzzRunClusterSizing(f *testing.F) {
	w := tokenflow.BurstWorkload(3, 64, 16, 20, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeSizing(data)
		pool, ok := expectedPool(cfg)
		res, err := tokenflow.RunCluster(cfg, w)
		switch {
		case !ok && err == nil:
			t.Fatalf("config %+v (autoscale %+v) should be rejected", cfg, cfg.Autoscale)
		case ok && err != nil:
			t.Fatalf("config %+v (autoscale %+v) rejected: %v", cfg, cfg.Autoscale, err)
		case ok && len(res.Replicas) != pool:
			t.Fatalf("config %+v (autoscale %+v) built %d replicas, want %d",
				cfg, cfg.Autoscale, len(res.Replicas), pool)
		}
	})
}
