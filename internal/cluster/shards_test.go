package cluster_test

// Sharded-vs-single-threaded equivalence: for every row of the
// determinism grid (autoscale × topology × migration), a run partitioned
// across parallel shard goroutines must produce a Result deeply identical
// to the single-threaded run of the same seed and spec — reports,
// per-request token timelines, fabric ledgers, scale events, event
// counts, everything. CI runs these under -race, so a shard touching
// state it does not own fails even when the merged result happens to
// match.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
)

// TestShardedDeterminismGrid proves sharded execution is a pure
// performance change across the full grid: Shards ∈ {2, 3, 8} (8 clamps
// to the replica count) against the single-threaded baseline.
func TestShardedDeterminismGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func(shards int) *cluster.Result {
				cfg, build := row.make()
				cfg.Shards = shards
				// Sampling on so the merged series and imbalance series
				// must match too, not just the end-of-run scalars.
				cfg.SampleEvery = 250 * time.Millisecond
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			single := run(0)
			for _, shards := range []int{2, 3, 8} {
				got := run(shards)
				if reflect.DeepEqual(single, got) {
					continue
				}
				switch {
				case !reflect.DeepEqual(single.Report, got.Report):
					t.Fatalf("shards=%d: reports differ:\n%+v\n%+v", shards, single.Report, got.Report)
				case !reflect.DeepEqual(single.ScaleEvents, got.ScaleEvents):
					t.Fatalf("shards=%d: scale events differ:\n%+v\n%+v", shards, single.ScaleEvents, got.ScaleEvents)
				case !reflect.DeepEqual(single.TransferClasses, got.TransferClasses):
					t.Fatalf("shards=%d: transfer ledgers differ:\n%+v\n%+v", shards, single.TransferClasses, got.TransferClasses)
				case single.EventsProcessed != got.EventsProcessed:
					t.Fatalf("shards=%d: processed %d events, single-threaded processed %d",
						shards, got.EventsProcessed, single.EventsProcessed)
				default:
					t.Fatalf("shards=%d: result diverged from single-threaded run", shards)
				}
			}
		})
	}
}

// TestShardedFastPathMatchesLegacy exercises the barrier-free fast path —
// static pool, round-robin routing, no migration, no sampling — where
// arrivals pre-route straight onto the shard clocks, and requires deep
// equality with the single-threaded routed run.
func TestShardedFastPathMatchesLegacy(t *testing.T) {
	w := sessionWorkload(t)
	run := func(shards int) *cluster.Result {
		cfg := cluster.Config{
			Replicas: 3,
			Policy:   router.NewRoundRobin(),
			Shards:   shards,
		}
		_, build := determinismGrid()[0].make()
		cl, err := cluster.New(cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(0)
	for _, shards := range []int{2, 3} {
		if got := run(shards); !reflect.DeepEqual(single, got) {
			t.Fatalf("shards=%d: fast-path result diverged from single-threaded run", shards)
		}
	}
}

// TestShardedObsByteIdentity is the sharded-safe-recording acceptance
// gate: for every determinism-grid row, a sharded run with the full
// flight recorder on must export the exact bytes of the single-threaded
// run — the JSONL event stream, the Chrome trace, and the series CSV —
// and derive a deeply identical attribution report. Per-shard recorders
// plus the deterministic (time, replica, recorder, sequence) merge are
// what make this hold; CI runs it under -race so a shard writing a sink
// it does not own fails even when the merged bytes happen to match.
func TestShardedObsByteIdentity(t *testing.T) {
	w := sessionWorkload(t)
	type export struct {
		res    *cluster.Result
		jsonl  string
		trace  string
		csv    string
		events int
	}
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func(shards int) export {
				cfg, build := row.make()
				cfg.Shards = shards
				cfg.SampleEvery = 250 * time.Millisecond
				cfg.Obs = obs.Options{
					Events: true, Series: true, Profile: true, Attribution: true,
					SampleEvery: 2,
				}
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				rec := res.Obs.Events
				var jsonl, trace, csv strings.Builder
				if err := rec.WriteJSONL(&jsonl); err != nil {
					t.Fatal(err)
				}
				if err := rec.WriteChromeTrace(&trace); err != nil {
					t.Fatal(err)
				}
				if err := res.Obs.Series.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				return export{res, jsonl.String(), trace.String(), csv.String(), rec.Len()}
			}
			single := run(0)
			if single.events == 0 {
				t.Fatal("single-threaded run recorded no events")
			}
			if err := cluster.CheckInvariants(single.res, w.Len()); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 8} {
				got := run(shards)
				if got.jsonl != single.jsonl {
					t.Fatalf("shards=%d: JSONL export differs from single-threaded run", shards)
				}
				if got.trace != single.trace {
					t.Fatalf("shards=%d: Chrome trace export differs from single-threaded run", shards)
				}
				if got.csv != single.csv {
					t.Fatalf("shards=%d: series CSV export differs from single-threaded run", shards)
				}
				if !reflect.DeepEqual(got.res.Attribution, single.res.Attribution) {
					t.Fatalf("shards=%d: attribution report differs:\n%+v\n%+v",
						shards, got.res.Attribution, single.res.Attribution)
				}
				if err := cluster.CheckInvariants(got.res, w.Len()); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
			}
		})
	}
}

// TestShardedAttributionOnFastPath: attribution alone keeps the
// barrier-free fast path (it needs no coordinator events), and its
// streaming report still matches the single-threaded run's exactly.
func TestShardedAttributionOnFastPath(t *testing.T) {
	w := sessionWorkload(t)
	run := func(shards int) *cluster.Result {
		cfg := cluster.Config{
			Replicas: 3,
			Policy:   router.NewRoundRobin(),
			Shards:   shards,
			Obs:      obs.Options{Attribution: true},
		}
		_, build := determinismGrid()[0].make()
		cl, err := cluster.New(cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(0)
	if single.Attribution == nil || single.Attribution.Requests == 0 {
		t.Fatal("attribution-only run produced no report")
	}
	if single.Obs != nil {
		t.Fatalf("attribution-only run retained a capture: %+v", single.Obs)
	}
	for _, shards := range []int{2, 3} {
		got := run(shards)
		if !reflect.DeepEqual(single, got) {
			t.Fatalf("shards=%d: attribution-only result diverged from single-threaded run", shards)
		}
	}
}

// TestShardedTimedOutRunsMatch: a run the MaxSimTime deadline cuts short
// is deep-equal at every shard count too. One loop drives every run and
// fires exactly the events at or before the deadline on every clock, on
// the coordinated path (sampling on) and on the barrier-free fast path,
// where an arrival counts as routed only once it fires.
func TestShardedTimedOutRunsMatch(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range []struct {
		name        string
		sampleEvery time.Duration
	}{
		{"coordinated", 250 * time.Millisecond},
		{"fast-path", 0},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func(shards int) *cluster.Result {
				cl, err := cluster.New(cluster.Config{
					Replicas:    3,
					Policy:      router.NewRoundRobin(),
					Shards:      shards,
					SampleEvery: row.sampleEvery,
					MaxSimTime:  20 * time.Second,
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
			single := run(0)
			if !single.TimedOut {
				t.Fatal("a 20s cap must cut the 60s session workload short")
			}
			for _, shards := range []int{1, 2} {
				got := run(shards)
				if reflect.DeepEqual(single, got) {
					continue
				}
				for i, rs := range got.PerReplica {
					if want := single.PerReplica[i].Routed; rs.Routed != want {
						t.Errorf("shards=%d: replica %d routed %d, want %d", shards, i, rs.Routed, want)
					}
				}
				t.Fatalf("shards=%d: timed-out result diverged (%d events vs %d)",
					shards, got.EventsProcessed, single.EventsProcessed)
			}
		})
	}
}
