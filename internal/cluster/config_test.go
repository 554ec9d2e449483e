package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/fabric"
	"repro/internal/router"
)

// Config.Normalize is the cluster config's one defaulting and validation
// path. These tests pin it the way a config loader is pinned: the zero
// config's defaults, the derived-field normalizations, the zero or
// out-of-range inputs that select defaults, every rejected input, and
// idempotence over all of them.

var (
	testRouter = router.NewRoundRobin()
	testScaler = autoscale.NewQueuePressure(autoscale.QueuePressureConfig{})
)

func mustNormalize(t *testing.T, c Config) Config {
	t.Helper()
	n, err := c.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", c, err)
	}
	return n
}

func TestNormalize_Defaults(t *testing.T) {
	got := mustNormalize(t, Config{Policy: testRouter})
	want := Config{
		Replicas:        1,
		Policy:          testRouter,
		MaxSimTime:      4 * time.Hour,
		MigrationPolicy: MigrateAlways,
		Topology:        &fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero config:\n got %+v\nwant %+v", got, want)
	}

	got = mustNormalize(t, Config{Replicas: 3, Policy: testRouter,
		Autoscale: &AutoscaleConfig{Policy: testScaler}})
	wantAS := AutoscaleConfig{
		Policy:       testScaler,
		Min:          1,
		Max:          3,
		Initial:      1,
		GatewayDepth: 512,
		Warmup:       8 * time.Second,
		ControlEvery: time.Second,
		PrewarmTopK:  8,
		normalized:   true,
	}
	if got.Replicas != 3 || !reflect.DeepEqual(*got.Autoscale, wantAS) {
		t.Errorf("zero autoscale config: replicas %d\n got %+v\nwant %+v",
			got.Replicas, *got.Autoscale, wantAS)
	}
}

// pool is the slice of a normalized config the normalization rows pin.
type pool struct {
	Replicas, Shards, Min, Max, Initial int
}

func poolOf(c Config) pool {
	p := pool{Replicas: c.Replicas, Shards: c.Shards}
	if a := c.Autoscale; a != nil {
		p.Min, p.Max, p.Initial = a.Min, a.Max, a.Initial
	}
	return p
}

// normalizationCases are valid configs whose derived fields Normalize
// resolves; the idempotence test reuses them.
var normalizationCases = []struct {
	name string
	in   Config
	want pool
}{
	{"max-from-replicas",
		Config{Replicas: 4, Autoscale: &AutoscaleConfig{Min: 2}},
		pool{Replicas: 4, Min: 2, Max: 4, Initial: 2}},
	{"max-stretches-to-min",
		Config{Replicas: 1, Autoscale: &AutoscaleConfig{Min: 3}},
		pool{Replicas: 3, Min: 3, Max: 3, Initial: 3}},
	{"explicit-max-sizes-pool",
		Config{Replicas: 2, Autoscale: &AutoscaleConfig{Max: 5, Initial: 4}},
		pool{Replicas: 5, Min: 1, Max: 5, Initial: 4}},
	{"scale-to-zero-forces-min-0",
		Config{Replicas: 2, Autoscale: &AutoscaleConfig{ScaleToZero: true, Min: 3}},
		pool{Replicas: 2, Min: 0, Max: 2, Initial: 0}},
	{"scale-to-zero-forces-min-0-under-max",
		Config{Replicas: 2, Autoscale: &AutoscaleConfig{ScaleToZero: true, Min: 3, Max: 2}},
		pool{Replicas: 2, Min: 0, Max: 2, Initial: 0}},
	{"shards-clamped-to-replicas",
		Config{Replicas: 3, Shards: 8},
		pool{Replicas: 3, Shards: 3}},
	{"shards-clamped-to-autoscale-max",
		Config{Replicas: 1, Shards: 4, Autoscale: &AutoscaleConfig{Max: 2}},
		pool{Replicas: 2, Shards: 2, Min: 1, Max: 2, Initial: 1}},
}

func withPolicies(c Config) Config {
	c.Policy = testRouter
	if c.Autoscale != nil {
		a := *c.Autoscale
		a.Policy = testScaler
		c.Autoscale = &a
	}
	return c
}

func TestNormalize_Normalization(t *testing.T) {
	for _, c := range normalizationCases {
		got := mustNormalize(t, withPolicies(c.in))
		if p := poolOf(got); p != c.want {
			t.Errorf("%s: pool %+v, want %+v", c.name, p, c.want)
		}
	}
	got := mustNormalize(t, withPolicies(Config{Autoscale: &AutoscaleConfig{Warmup: -time.Second}}))
	if got.Autoscale.Warmup != 0 {
		t.Errorf("negative warm-up resolved to %v, want 0 (instant)", got.Autoscale.Warmup)
	}
}

func TestNormalize_InvalidOrZeroUsesDefaults(t *testing.T) {
	for _, every := range []time.Duration{0, -time.Second} {
		got := mustNormalize(t, withPolicies(Config{Autoscale: &AutoscaleConfig{ControlEvery: every}}))
		if got.Autoscale.ControlEvery != time.Second {
			t.Errorf("ControlEvery %v resolved to %v, want 1s", every, got.Autoscale.ControlEvery)
		}
	}
	got := mustNormalize(t, withPolicies(Config{Topology: &fabric.Spec{Kind: fabric.SharedNIC}}))
	if want := (fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 25}); *got.Topology != want {
		t.Errorf("zero link bandwidth resolved to %+v, want %+v", *got.Topology, want)
	}
	got = mustNormalize(t, withPolicies(Config{Autoscale: &AutoscaleConfig{ScaleToZero: true, GatewayDepth: -1}}))
	if got.Autoscale.GatewayDepth != -1 {
		t.Errorf("negative gateway depth resolved to %d, want it kept (zero capacity)",
			got.Autoscale.GatewayDepth)
	}
}

func TestNormalize_Errors(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want string // substring naming the offending field
	}{
		{"negative-replicas", Config{Replicas: -1}, "replica count"},
		{"negative-shards", Config{Shards: -1}, "shard count"},
		{"negative-max-sim-time", Config{MaxSimTime: -time.Second}, "MaxSimTime"},
		{"unknown-migration-policy", Config{MigrationPolicy: "sometimes"}, "migration policy"},
		{"unknown-topology-kind", Config{Topology: &fabric.Spec{Kind: "torus"}}, "topology kind"},
		{"negative-link-bandwidth", Config{Topology: &fabric.Spec{LinkGBps: -5}}, "link bandwidth"},
		{"negative-switch-bandwidth", Config{Topology: &fabric.Spec{Kind: fabric.SharedNIC, SwitchGBps: -1}}, "switch bandwidth"},
		{"negative-min", Config{Autoscale: &AutoscaleConfig{Min: -1}}, "autoscale min"},
		{"negative-max", Config{Autoscale: &AutoscaleConfig{Max: -1}}, "autoscale max"},
		{"negative-initial", Config{Autoscale: &AutoscaleConfig{Initial: -1}}, "autoscale initial"},
		{"min-over-max", Config{Autoscale: &AutoscaleConfig{Min: 4, Max: 2}}, "exceeds max"},
		{"initial-over-max", Config{Replicas: 2, Autoscale: &AutoscaleConfig{Initial: 3}}, "autoscale initial"},
	}
	for _, c := range cases {
		_, err := withPolicies(c.in).Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := (Config{}).Normalize(); err == nil || !strings.Contains(err.Error(), "routing policy") {
		t.Errorf("nil routing policy: error %v", err)
	}
	if _, err := (Config{Policy: testRouter, Autoscale: &AutoscaleConfig{}}).Normalize(); err == nil ||
		!strings.Contains(err.Error(), "nil policy") {
		t.Errorf("nil autoscale policy: error %v", err)
	}
}

// TestNormalize_Idempotent: normalizing a normalized config changes
// nothing — including a negative (instant) warm-up, whose resolved zero
// must not turn into the 8s default — and Normalize never writes through
// the caller's Autoscale or Topology pointers.
func TestNormalize_Idempotent(t *testing.T) {
	inputs := []Config{
		{},
		{Autoscale: &AutoscaleConfig{Warmup: -time.Second}},
		{Autoscale: &AutoscaleConfig{ScaleToZero: true, GatewayDepth: -1}},
		{Topology: &fabric.Spec{Kind: fabric.SharedNIC, SwitchGBps: 40}},
	}
	for _, c := range normalizationCases {
		inputs = append(inputs, c.in)
	}
	for i, in := range inputs {
		in = withPolicies(in)
		var asBefore AutoscaleConfig
		if in.Autoscale != nil {
			asBefore = *in.Autoscale
		}
		once := mustNormalize(t, in)
		twice := mustNormalize(t, once)
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("input %d: Normalize is not idempotent:\n once %+v %+v %+v\ntwice %+v %+v %+v",
				i, once, once.Topology, once.Autoscale, twice, twice.Topology, twice.Autoscale)
		}
		if in.Autoscale != nil && !reflect.DeepEqual(*in.Autoscale, asBefore) {
			t.Errorf("input %d: Normalize wrote through the caller's Autoscale", i)
		}
		if in.Topology != nil && in.Topology.LinkGBps != 0 {
			t.Errorf("input %d: Normalize wrote through the caller's Topology", i)
		}
	}
}
