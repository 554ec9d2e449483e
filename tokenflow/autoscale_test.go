package tokenflow_test

import (
	"reflect"
	"testing"

	"repro/tokenflow"
)

// spikeWorkload is the autoscaling study workload: multi-turn sessions
// with periodic flash crowds — baseline load a small pool handles, spikes
// it cannot.
func spikeWorkload() tokenflow.Workload {
	return tokenflow.SessionSpikesWorkload(220, 240, 60, 20, 7)
}

func runCluster(t *testing.T, cfg tokenflow.ClusterConfig, w tokenflow.Workload) *tokenflow.ClusterResult {
	t.Helper()
	res, err := tokenflow.RunCluster(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.TimedOut {
		t.Fatal("cluster run timed out")
	}
	return res
}

// TestAutoscaleStaticReproducesRunCluster: with min = max = N and a policy
// that can therefore never act, the autoscaled cluster must reproduce the
// plain RunCluster results exactly.
func TestAutoscaleStaticReproducesRunCluster(t *testing.T) {
	w := tokenflow.SessionWorkload(60, 120, 20, 9)
	base := tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 3,
		Router:   tokenflow.RouterSessionAffinity,
	}
	static := runCluster(t, base, w)

	scaled := base
	scaled.Autoscale = &tokenflow.AutoscaleSpec{MinReplicas: 3, MaxReplicas: 3}
	auto := runCluster(t, scaled, w)

	if !reflect.DeepEqual(static.Cluster, auto.Cluster) {
		t.Errorf("min=max autoscaled cluster result differs from static RunCluster")
	}
	if static.Imbalance != auto.Imbalance || static.PrefixHits != auto.PrefixHits {
		t.Errorf("imbalance/hits differ: %v/%d vs %v/%d",
			static.Imbalance, static.PrefixHits, auto.Imbalance, auto.PrefixHits)
	}
	if auto.ScaleUps != 0 || auto.ScaleDowns != 0 {
		t.Errorf("min=max cluster scaled: %d ups, %d downs", auto.ScaleUps, auto.ScaleDowns)
	}
}

// TestAutoscaleSpecReusable: RunCluster must not write resolved defaults
// back through the caller's spec pointer — the same spec driving pools of
// different sizes must size each pool independently.
func TestAutoscaleSpecReusable(t *testing.T) {
	w := tokenflow.SessionWorkload(20, 60, 20, 9)
	spec := &tokenflow.AutoscaleSpec{MinReplicas: 1, WarmupSeconds: 2}
	for _, n := range []int{2, 4} {
		res := runCluster(t, tokenflow.ClusterConfig{
			Config:    tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas:  n,
			Router:    tokenflow.RouterLeastQueue,
			Autoscale: spec,
		}, w)
		if got := len(res.Replicas); got != n {
			t.Errorf("Replicas=%d run built a %d-replica pool", n, got)
		}
	}
	if spec.MaxReplicas != 0 {
		t.Errorf("RunCluster wrote MaxReplicas=%d into the caller's spec", spec.MaxReplicas)
	}
}

// TestAutoscaleMinOverMaxErrors: an explicit MinReplicas > MaxReplicas is
// a configuration error, not a panic.
func TestAutoscaleMinOverMaxErrors(t *testing.T) {
	w := tokenflow.SessionWorkload(5, 30, 20, 9)
	_, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:    tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Router:    tokenflow.RouterLeastQueue,
		Autoscale: &tokenflow.AutoscaleSpec{MinReplicas: 4, MaxReplicas: 2},
	}, w)
	if err == nil {
		t.Fatal("min > max should fail")
	}
}

// TestAutoscaleBeatsFixedPools is the headline trade: under the spike
// workload, the autoscaled pool with KV pre-warming must beat the fixed
// small pool on P99 TTFT (it adds capacity when spikes land) and the fixed
// large pool on GPU-seconds (it gives capacity back between spikes).
func TestAutoscaleBeatsFixedPools(t *testing.T) {
	w := spikeWorkload()
	base := tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"}
	const small, large = 1, 4

	fixedSmall := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: small, Router: tokenflow.RouterSessionAffinity,
	}, w)
	fixedLarge := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: large, Router: tokenflow.RouterSessionAffinity,
	}, w)
	auto := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: large, Router: tokenflow.RouterSessionAffinity,
		Autoscale: &tokenflow.AutoscaleSpec{
			MinReplicas: small, MaxReplicas: large,
			WarmupSeconds: 5, Prewarm: true,
		},
	}, w)

	t.Logf("fixed-small: P99 %.2fs, GPU-s %.0f", fixedSmall.Cluster.P99TTFT.Seconds(), fixedSmall.GPUSeconds)
	t.Logf("fixed-large: P99 %.2fs, GPU-s %.0f", fixedLarge.Cluster.P99TTFT.Seconds(), fixedLarge.GPUSeconds)
	t.Logf("autoscaled:  P99 %.2fs, GPU-s %.0f, ups %d, downs %d, stalls %d, prewarmed %d tokens",
		auto.Cluster.P99TTFT.Seconds(), auto.GPUSeconds, auto.ScaleUps, auto.ScaleDowns,
		auto.WarmupStalls, auto.PrewarmedTokens)

	if auto.ScaleUps == 0 {
		t.Fatal("the spike workload never triggered a scale-up")
	}
	checkOutcomeSums(t, auto)
	if auto.Cluster.P99TTFT >= fixedSmall.Cluster.P99TTFT {
		t.Errorf("autoscaled P99 TTFT %v >= fixed-small %v",
			auto.Cluster.P99TTFT, fixedSmall.Cluster.P99TTFT)
	}
	if auto.GPUSeconds >= fixedLarge.GPUSeconds {
		t.Errorf("autoscaled GPU-seconds %.0f >= fixed-large %.0f",
			auto.GPUSeconds, fixedLarge.GPUSeconds)
	}
}

// scaledUpHitRate is the post-scale-up prefix hit rate: hits per routed
// request over the replicas that started off and were scaled in.
func scaledUpHitRate(res *tokenflow.ClusterResult, initial int) (float64, int) {
	var hits, routed int64
	for _, rr := range res.Replicas[initial:] {
		hits += rr.PrefixHits
		routed += int64(rr.Routed)
	}
	if routed == 0 {
		return 0, 0
	}
	return float64(hits) / float64(routed), int(routed)
}

// TestPrewarmBeatsColdWarmup: pre-warming must lift the post-scale-up
// prefix hit rate over a cold warm-up — the new replica starts with the
// hottest sessions' KV already resident.
func TestPrewarmBeatsColdWarmup(t *testing.T) {
	w := spikeWorkload()
	run := func(prewarm bool) *tokenflow.ClusterResult {
		return runCluster(t, tokenflow.ClusterConfig{
			Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas: 4,
			Router:   tokenflow.RouterSessionAffinity,
			Autoscale: &tokenflow.AutoscaleSpec{
				MinReplicas: 1, MaxReplicas: 4,
				WarmupSeconds: 5, Prewarm: prewarm, PrewarmTopK: 8,
			},
		}, w)
	}
	warm := run(true)
	cold := run(false)

	warmRate, warmRouted := scaledUpHitRate(warm, 1)
	coldRate, coldRouted := scaledUpHitRate(cold, 1)
	t.Logf("prewarm: post-scale-up hit rate %.3f over %d routed (%d prewarmed tokens, %d migrations)",
		warmRate, warmRouted, warm.PrewarmedTokens, warm.Prewarms)
	t.Logf("cold:    post-scale-up hit rate %.3f over %d routed", coldRate, coldRouted)

	if warm.ScaleUps == 0 || cold.ScaleUps == 0 {
		t.Fatal("no scale-ups to compare")
	}
	if warm.Prewarms == 0 || warm.PrewarmedTokens == 0 {
		t.Fatal("prewarm run shipped no pins")
	}
	if cold.Prewarms != 0 {
		t.Fatalf("cold run pre-warmed %d pins", cold.Prewarms)
	}
	if warmRouted == 0 {
		t.Fatal("scaled-up replicas received no traffic")
	}
	if warmRate <= coldRate {
		t.Errorf("pre-warmed post-scale-up hit rate %.3f <= cold %.3f", warmRate, coldRate)
	}
}
