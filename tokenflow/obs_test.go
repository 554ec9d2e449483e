package tokenflow_test

// Public-surface contract of the flight recorder: the zero ObsSpec is
// pure (results identical to an uninstrumented run, Obs nil), and an
// instrumented run exports valid Chrome trace JSON, parseable JSONL,
// CSV series, and a profile report — through the writer methods and the
// Out-directory auto-export alike.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/tokenflow"
)

func obsClusterConfig(spec tokenflow.ObsSpec) tokenflow.ClusterConfig {
	return tokenflow.ClusterConfig{
		Config: tokenflow.Config{
			System:             tokenflow.SystemTokenFlow,
			GPU:                "RTX-4090",
			Model:              "Llama3-8B",
			MemFraction:        0.9,
			HostPrefixCache:    true,
			SampleEverySeconds: 0.5,
			Obs:                spec,
		},
		Replicas: 2,
		Router:   tokenflow.RouterSessionAffinity,
		Migrate:  true,
	}
}

// TestObsSpecZeroValueIsPure: the default spec records nothing, attaches
// no capture, and leaves both Run and RunCluster results deep-equal to
// instrumented runs with the capture set aside.
func TestObsSpecZeroValueIsPure(t *testing.T) {
	w := tokenflow.SessionWorkload(24, 60, 20, 42)
	full := tokenflow.ObsSpec{Events: true, Series: true, Profile: true, Attribution: true}

	t.Run("cluster", func(t *testing.T) {
		off, err := tokenflow.RunCluster(obsClusterConfig(tokenflow.ObsSpec{}), w)
		if err != nil {
			t.Fatal(err)
		}
		if off.Obs != nil {
			t.Fatal("zero ObsSpec attached a capture")
		}
		if off.Attribution != nil {
			t.Fatal("zero ObsSpec attached an attribution report")
		}
		on, err := tokenflow.RunCluster(obsClusterConfig(full), w)
		if err != nil {
			t.Fatal(err)
		}
		if on.Obs == nil || on.Obs.EventCount() == 0 {
			t.Fatal("instrumented run recorded no events")
		}
		if on.Attribution == nil || on.Attribution.Requests == 0 {
			t.Fatal("instrumented run produced no attribution report")
		}
		on.Obs, on.Attribution = nil, nil
		if !reflect.DeepEqual(off, on) {
			t.Fatal("instrumented cluster run diverged from uninstrumented run")
		}
	})

	t.Run("single-device", func(t *testing.T) {
		cfg := tokenflow.Config{System: tokenflow.SystemTokenFlow, GPU: "RTX-4090"}
		off, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if off.Obs != nil {
			t.Fatal("zero ObsSpec attached a capture")
		}
		// Attribution is cluster-level: on its own it must leave the
		// single-device run uninstrumented.
		cfg.Obs = tokenflow.ObsSpec{Attribution: true}
		aoff, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if aoff.Obs != nil {
			t.Fatal("attribution-only spec attached a capture to single-device Run")
		}
		cfg.Obs = tokenflow.ObsSpec{Events: true, Profile: true}
		on, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if on.Obs == nil || on.Obs.EventCount() == 0 {
			t.Fatal("instrumented run recorded no events")
		}
		on.Obs = nil
		if !reflect.DeepEqual(off, on) {
			t.Fatal("instrumented single-device run diverged from uninstrumented run")
		}
	})
}

// TestObsExportsAreValid runs an instrumented cluster and validates every
// export format, plus the Out-directory auto-write.
func TestObsExportsAreValid(t *testing.T) {
	dir := t.TempDir()
	spec := tokenflow.ObsSpec{
		Events: true, Series: true, Profile: true, Attribution: true,
		Out: filepath.Join(dir, "obs"),
	}
	w := tokenflow.SessionWorkload(24, 60, 20, 42)
	res, err := tokenflow.RunCluster(obsClusterConfig(spec), w)
	if err != nil {
		t.Fatal(err)
	}

	// Chrome trace: a JSON document with a non-empty traceEvents array.
	var buf bytes.Buffer
	if err := res.Obs.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}

	// JSONL: every line an object with the stable fields.
	buf.Reset()
	if err := res.Obs.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v", lines+1, err)
		}
		if _, ok := e["kind"]; !ok {
			t.Fatalf("JSONL line %d lacks a kind", lines+1)
		}
		lines++
	}
	if lines != res.Obs.EventCount() {
		t.Fatalf("JSONL has %d lines, recorder holds %d events", lines, res.Obs.EventCount())
	}

	// Series CSV: header plus data, including the host-mirror series.
	buf.Reset()
	if err := res.Obs.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !bytes.HasPrefix([]byte(csv), []byte("series,time_s,value\n")) {
		t.Fatal("series CSV lacks the header")
	}
	for _, name := range []string{"replica0/queue_depth", "replica0/kv_util",
		"replica0/host_mirror_bytes", "cluster/active_replicas"} {
		if !bytes.Contains([]byte(csv), []byte(name)) {
			t.Fatalf("series CSV lacks %q", name)
		}
	}

	// Profile: the BENCH_obs.json shape with the engine-step phase hot.
	buf.Reset()
	if err := res.Obs.WriteProfileJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var prof struct {
		Scenario string `json:"scenario"`
		Events   int    `json:"events"`
		Phases   map[string]struct {
			Calls uint64 `json:"calls"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &prof); err != nil {
		t.Fatalf("profile JSON does not parse: %v", err)
	}
	if prof.Events != res.Obs.EventCount() || prof.Phases["engine_step"].Calls == 0 {
		t.Fatalf("profile report inconsistent: %+v", prof)
	}

	// Attribution: phases conserve the measured latencies on every
	// retained span, and the report round-trips through attribution.json.
	if res.Attribution == nil || res.Attribution.Requests == 0 {
		t.Fatal("attribution report missing")
	}
	for _, s := range res.Attribution.Slowest {
		if s.PhaseSum() != s.E2E() || s.PhaseSumTTFT() != s.TTFT() {
			t.Errorf("request %d: phase sums %v/%v do not match TTFT %v / E2E %v",
				s.Request, s.PhaseSumTTFT(), s.PhaseSum(), s.TTFT(), s.E2E())
		}
	}
	buf.Reset()
	if err := res.Attribution.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var arep struct {
		Requests int64            `json:"requests"`
		Metrics  []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &arep); err != nil {
		t.Fatalf("attribution JSON does not parse: %v", err)
	}
	if arep.Requests != res.Attribution.Requests || len(arep.Metrics) == 0 {
		t.Fatalf("attribution JSON inconsistent: %+v", arep)
	}

	// Out auto-wrote the files, attribution included.
	for _, name := range []string{"events.jsonl", "trace.json", "series.csv",
		"BENCH_obs.json", "attribution.json"} {
		if _, err := os.Stat(filepath.Join(spec.Out, name)); err != nil {
			t.Errorf("Out directory lacks %s: %v", name, err)
		}
	}

	checkOutcomeSums(t, res)
}

// checkOutcomeSums asserts that the cluster-level outcome counters summed
// from per-replica state agree with the per-replica results, and that the
// scale-up/down tallies agree with the scale-event log.
func checkOutcomeSums(t *testing.T, res *tokenflow.ClusterResult) {
	t.Helper()
	var mirrorBytes, evictions int64
	var pinned int
	for _, rr := range res.Replicas {
		if (rr.HostMirrorBytes > 0) != (rr.HostMirroredPages > 0) {
			t.Errorf("replica %d: mirror bytes %d vs pages %d disagree",
				rr.ID, rr.HostMirrorBytes, rr.HostMirroredPages)
		}
		mirrorBytes += rr.HostMirrorBytes
		evictions += rr.PrefixEvictions
		pinned += rr.PinnedPrefixPages
	}
	if res.HostMirrorBytes != mirrorBytes {
		t.Errorf("cluster HostMirrorBytes %d != per-replica sum %d", res.HostMirrorBytes, mirrorBytes)
	}
	if res.PrefixEvictions != evictions {
		t.Errorf("cluster PrefixEvictions %d != per-replica sum %d", res.PrefixEvictions, evictions)
	}
	if res.PinnedPrefixPages != pinned {
		t.Errorf("cluster PinnedPrefixPages %d != per-replica sum %d", res.PinnedPrefixPages, pinned)
	}
	var ups, downs int
	for _, ev := range res.ScaleEvents {
		switch ev.Kind {
		case "warmup", "reactivate":
			ups++
		case "drain":
			downs++
		}
	}
	if res.ScaleUps != ups || res.ScaleDowns != downs {
		t.Errorf("ScaleUps/ScaleDowns %d/%d, scale-event log tallies %d/%d",
			res.ScaleUps, res.ScaleDowns, ups, downs)
	}
}
