package tokenflow

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simclock"
)

// RouterPolicy selects how a cluster routes arriving requests to replicas.
type RouterPolicy string

// Routing policies.
const (
	// RouterRoundRobin cycles through replicas in index order.
	RouterRoundRobin RouterPolicy = "round-robin"
	// RouterLeastQueue routes to the replica with the fewest outstanding
	// (queued + running) requests.
	RouterLeastQueue RouterPolicy = "least-queue"
	// RouterLeastKV routes to the replica with the most free KV pages.
	RouterLeastKV RouterPolicy = "least-kv"
	// RouterWeightedCapacity routes to the replica with the lowest
	// outstanding load per unit of KV capacity — the load balancer for
	// heterogeneous pools.
	RouterWeightedCapacity RouterPolicy = "weighted-capacity"
	// RouterSessionAffinity sticks multi-turn sessions to the replica
	// holding their pinned prefix KV, falling back to least-queue for
	// stateless requests and overloaded targets.
	RouterSessionAffinity RouterPolicy = "session-affinity"
	// RouterIndexedLeastQueue is least-queue against the event-published
	// prefix index: the winner is an O(1) tree-root read, so the
	// per-decision cost is independent of pool size. With the default
	// (degenerate) index spec it picks exactly what RouterLeastQueue
	// picks; under PrefixIndex staleness it routes on the lagged view.
	RouterIndexedLeastQueue RouterPolicy = "indexed-least-queue"
	// RouterIndexedSessionAffinity is session affinity against the prefix
	// index: holder lookup is a map read and fallbacks are tree-root
	// reads — no per-replica scan anywhere on the hot path.
	RouterIndexedSessionAffinity RouterPolicy = "indexed-session-affinity"
)

// RouterPolicies lists all routing policies.
func RouterPolicies() []RouterPolicy {
	return []RouterPolicy{RouterRoundRobin, RouterLeastQueue, RouterLeastKV,
		RouterWeightedCapacity, RouterSessionAffinity,
		RouterIndexedLeastQueue, RouterIndexedSessionAffinity}
}

// ReplicaSpec describes one group of identical replicas in a
// heterogeneous cluster.
type ReplicaSpec struct {
	// GPU names the device of this group ("RTX-4090", "A6000", "H200",
	// "Ascend-910B"); empty inherits the cluster Config's GPU.
	GPU string
	// MemFraction overrides the device-memory share for this group; zero
	// inherits the cluster Config's MemFraction.
	MemFraction float64
	// Count is the number of replicas in this group (default 1).
	Count int
}

// ClusterConfig describes a simulated multi-replica deployment: engine
// replicas behind a router, either Replicas identical copies of the
// embedded single-device Config or the heterogeneous pool ReplicaSpecs
// lays out.
type ClusterConfig struct {
	// Config is the per-replica deployment (system, GPU, model, memory).
	Config

	// Replicas is the number of engine replicas (default 1). Ignored when
	// ReplicaSpecs is set.
	Replicas int

	// ReplicaSpecs lays out a heterogeneous pool: each spec contributes
	// Count replicas of its GPU/MemFraction, in order. All replicas serve
	// the same model. Empty means Replicas homogeneous copies of Config.
	ReplicaSpecs []ReplicaSpec

	// Router selects the routing policy (default RouterRoundRobin).
	Router RouterPolicy

	// Migrate enables cross-replica KV migration: when routing steers a
	// session away from the replica pinning its prefix KV, the pinned
	// pages ship over the replica interconnect instead of being
	// recomputed, with the transfer time on the virtual clock.
	Migrate bool

	// MigrationPolicy selects how migrations commit: "always" (default)
	// ships on every divert that finds a better donor; "cost" prices the
	// queued transfer on the real topology against the target's estimated
	// prefix recompute time and skips the migration when the wire loses.
	MigrationPolicy MigrationPolicy

	// InterconnectGBps is the interconnect link bandwidth in GB/s (default
	// 25, RDMA-class): per directed pair under the default full mesh, per
	// NIC direction under a shared-NIC Topology. Used with Migrate and
	// with autoscaling (pre-warm and drain hand-off travel the same
	// fabric).
	InterconnectGBps float64

	// Topology selects the interconnect layout of the transfer fabric.
	// Nil keeps the full mesh of dedicated per-pair links at
	// InterconnectGBps, under which transfers between different replica
	// pairs never contend — the configuration earlier revisions
	// hard-coded.
	Topology *TopologySpec

	// Autoscale enables SLO-driven replica autoscaling: a control loop on
	// the virtual clock grows and shrinks the active replica set between
	// MinReplicas and MaxReplicas. Nil keeps the static pool.
	Autoscale *AutoscaleSpec

	// PrefixIndex configures the event-published global prefix index: the
	// gateway-side, eventually-consistent view of every replica's pinned
	// prefixes and load that the indexed routing policies read in O(1).
	// Nil disables it — except under an indexed Router, which then gets
	// the degenerate synchronous index (zero delay, zero drops) and
	// routes exactly like its omniscient twin.
	PrefixIndex *PrefixIndexSpec

	// Shards partitions the replicas across parallel worker goroutines
	// (replica i runs on shard i mod Shards, each on its own sub-clock,
	// synchronized at every cross-replica event). The run stays
	// deterministic and produces results identical to Shards=0 — only
	// wall-clock time changes. Clamped to the replica count. The flight
	// recorder is sharded-safe: each shard records into its own sink and
	// the streams merge deterministically, so every Obs layer — events,
	// series, profile, attribution — exports byte-identically to the
	// single-threaded run. 0 or 1 keeps the single-threaded loop;
	// negative is an error.
	Shards int

	// Chaos injects faults on the virtual clock — replica crashes,
	// slow-node brownouts, interconnect link flaps — with full recovery
	// simulated: crash detection after a heartbeat delay, capped
	// exponential-backoff re-routing of orphaned requests, optional pin
	// redundancy (host mirrors on backup replicas, re-pinned after a
	// crash), and autoscaler backfill through the warm-up path. Nil, or a
	// spec with no faults and no redundancy, leaves the run byte-identical
	// to one without the field. Chaos runs stay deterministic: identical
	// specs (including seeded random plans) reproduce identical results at
	// any shard count.
	Chaos *ChaosSpec
}

// FaultKinds lists the injectable fault kinds.
func FaultKinds() []string { return []string{"crash", "brownout", "link-flap"} }

// FaultSpec is one scheduled fault in a chaos plan.
type FaultSpec struct {
	// Kind is "crash", "brownout", or "link-flap".
	Kind string
	// AtSeconds is the virtual-clock injection instant.
	AtSeconds float64
	// Replica targets crash and brownout faults.
	Replica int
	// DurationSeconds bounds brownout and link-flap windows.
	DurationSeconds float64
	// Factor is the brownout iteration-cost multiplier (must exceed 1).
	Factor float64
	// From and To name the link-flap replica pair (both directions flap).
	From, To int
}

// ChaosSpec is the fault-injection plan plus the recovery knobs. The zero
// value injects nothing.
type ChaosSpec struct {
	// Faults is the scripted fault plan.
	Faults []FaultSpec

	// RandomFaults adds this many seeded-random faults drawn over
	// [0, HorizonSeconds); Seed keys the draw, so identical specs inject
	// identical plans.
	RandomFaults   int
	Seed           int64
	HorizonSeconds float64

	// RetryMax caps re-routing attempts per crash-orphaned request before
	// it counts failed (default 3). RetryBackoffSeconds is the first retry
	// delay, doubling per attempt (default 0.25). DetectDelaySeconds
	// models the gateway noticing a crash via missed heartbeats (default
	// 0.25).
	RetryMax            int
	RetryBackoffSeconds float64
	DetectDelaySeconds  float64

	// Redundancy is the pin-redundancy factor K: host-tier mirrors of
	// every pinned session prefix are kept on K-1 backup replicas
	// (refreshed every ReplicateEverySeconds, at most
	// ReplicateConcurrency copies in flight) and re-pinned from the
	// backups after a crash. 0 or 1 disables redundancy.
	Redundancy            int
	ReplicateEverySeconds float64
	ReplicateConcurrency  int
}

// chaosSpec maps the public spec onto the internal chaos spec.
func (s *ChaosSpec) chaosSpec() (*chaos.Spec, error) {
	if s == nil {
		return nil, nil
	}
	out := &chaos.Spec{
		RandomFaults:         s.RandomFaults,
		Seed:                 s.Seed,
		Horizon:              simclock.FromSeconds(s.HorizonSeconds),
		RetryMax:             s.RetryMax,
		RetryBackoff:         time.Duration(s.RetryBackoffSeconds * float64(time.Second)),
		DetectDelay:          time.Duration(s.DetectDelaySeconds * float64(time.Second)),
		Redundancy:           s.Redundancy,
		ReplicateEvery:       time.Duration(s.ReplicateEverySeconds * float64(time.Second)),
		ReplicateConcurrency: s.ReplicateConcurrency,
	}
	for i, f := range s.Faults {
		g := chaos.Fault{
			At:       simclock.FromSeconds(f.AtSeconds),
			Replica:  f.Replica,
			Duration: time.Duration(f.DurationSeconds * float64(time.Second)),
			Factor:   f.Factor,
			From:     f.From,
			To:       f.To,
		}
		switch f.Kind {
		case "crash":
			g.Kind = chaos.Crash
		case "brownout":
			g.Kind = chaos.Brownout
		case "link-flap":
			g.Kind = chaos.LinkFlap
		default:
			return nil, fmt.Errorf("tokenflow: fault %d has unknown kind %q (have %v)",
				i, f.Kind, FaultKinds())
		}
		out.Faults = append(out.Faults, g)
	}
	return out, nil
}

// MigrationPolicy selects how cross-replica KV migrations are committed.
type MigrationPolicy string

// Migration policies.
const (
	// MigrateAlways ships a pinned prefix on every divert that finds a
	// better donor, regardless of interconnect backlog.
	MigrateAlways MigrationPolicy = "always"
	// MigrateCost prices the queued transfer on the real topology against
	// the target replica's estimated prefix recompute time and declines
	// migrations the wire would lose.
	MigrateCost MigrationPolicy = "cost"
)

// MigrationPolicies lists the migration policies.
func MigrationPolicies() []MigrationPolicy {
	return []MigrationPolicy{MigrateAlways, MigrateCost}
}

// PrefixIndexSpec configures the gateway's event-published prefix index:
// how stale the routing view is allowed to get. The zero value is the
// degenerate synchronous index — every publication applies at its emission
// instant, so indexed policies route exactly like their omniscient twins.
type PrefixIndexSpec struct {
	// PropagationDelaySeconds is the lag between a replica publishing a KV
	// or load event and the gateway index absorbing it (control-plane
	// latency). Zero applies events synchronously.
	PropagationDelaySeconds float64

	// DropRate is the probability in [0, 1) that a KV lifecycle
	// publication is lost in flight. Load signals are never dropped.
	// Drops are deterministic per (Seed, replica, sequence).
	DropRate float64

	// HeartbeatEverySeconds switches load signalling from per-change
	// queue publications to periodic digests of queue depth and
	// bucket-quantized free KV pages. Zero keeps the per-change stream.
	HeartbeatEverySeconds float64

	// MaxStalenessSeconds bounds how old a replica's digest may be before
	// indexed policies stop trusting it and divert to capacity-weighted
	// routing. Zero defaults to 3×heartbeat + propagation delay under
	// heartbeats, and to no staleness check otherwise.
	MaxStalenessSeconds float64

	// Seed keys the deterministic drop decisions.
	Seed int64
}

// indexSpec maps the public spec onto the internal prefixindex spec.
func (s *PrefixIndexSpec) indexSpec() *prefixindex.Spec {
	if s == nil {
		return nil
	}
	return &prefixindex.Spec{
		PropagationDelay: simclock.Duration(s.PropagationDelaySeconds),
		DropRate:         s.DropRate,
		HeartbeatEvery:   simclock.Duration(s.HeartbeatEverySeconds),
		MaxStaleness:     simclock.Duration(s.MaxStalenessSeconds),
		Seed:             s.Seed,
	}
}

// PrefixIndexStats reports the gateway index's end-of-run accounting: the
// publication ledger (Published counts every publication put on the wire,
// dropped ones included; Dropped, Applied and Pending partition it), the
// applied Heartbeats, the indexed-affinity outcome counters (AffinityHits
// and the four fallback classes), and the distinct Sessions indexed at the
// end of the run.
type PrefixIndexStats = prefixindex.Stats

// TopologyKind selects the interconnect layout of the transfer fabric.
type TopologyKind string

// Interconnect layouts.
const (
	// TopologyFullMesh: a dedicated link per directed replica pair — no
	// contention between different pairs (the degenerate default).
	TopologyFullMesh TopologyKind = "full-mesh"
	// TopologySharedNIC: one egress and one ingress NIC link per replica,
	// behind an optional shared switch. Concurrent migrations, pre-warms,
	// and drain hand-offs that share an endpoint serialize.
	TopologySharedNIC TopologyKind = "shared-nic"
)

// TopologyKinds lists the interconnect layouts.
func TopologyKinds() []TopologyKind {
	return []TopologyKind{TopologyFullMesh, TopologySharedNIC}
}

// TopologySpec describes the interconnect layout of the cluster's
// transfer fabric. Every KV byte the cluster moves between replicas —
// routing migrations, pre-warm, drain hand-off — is booked on this
// topology's links with FIFO contention, so a shared NIC makes concurrent
// transfers honest about queueing.
type TopologySpec struct {
	// Kind selects the layout (default TopologyFullMesh).
	Kind TopologyKind

	// LinkGBps is the bandwidth of one interconnect link in GB/s: per
	// directed pair under full-mesh, per NIC direction under shared-nic.
	// Zero inherits InterconnectGBps.
	LinkGBps float64

	// SwitchGBps bounds the aggregate switch bandwidth under shared-nic:
	// all transfers additionally serialize through one switch stage of
	// this bandwidth. Zero models a non-blocking switch.
	SwitchGBps float64
}

// fabricSpec maps the public topology spec onto the internal fabric spec;
// the cluster validates it.
func (s *TopologySpec) fabricSpec() *fabric.Spec {
	if s == nil {
		return nil
	}
	return &fabric.Spec{
		Kind:       fabric.Kind(s.Kind),
		LinkGBps:   s.LinkGBps,
		SwitchGBps: s.SwitchGBps,
	}
}

// AutoscalePolicy selects how the autoscaler decides scale actions.
type AutoscalePolicy string

// Autoscaling policies.
const (
	// AutoscaleQueuePressure scales on outstanding requests per
	// provisioned replica (the TTFT-pressure proxy), with hysteresis.
	AutoscaleQueuePressure AutoscalePolicy = "queue-pressure"
	// AutoscaleKVUtilization scales on pooled KV-page utilization — the
	// earlier congestion signal for long-context session workloads.
	AutoscaleKVUtilization AutoscalePolicy = "kv-utilization"
	// AutoscaleSLOTarget closes a PID-style feedback loop on the windowed
	// observed P99 TTFT, driving it toward TargetP99TTFT.
	AutoscaleSLOTarget AutoscalePolicy = "slo-target"
	// AutoscalePredictive forecasts the arrival rate (Holt level + trend)
	// and pre-scales one warm-up latency ahead of predicted demand, hiding
	// the warm-up stall a reactive policy pays after the queue has built.
	AutoscalePredictive AutoscalePolicy = "predictive"
)

// AutoscalePolicies lists the autoscaling policies.
func AutoscalePolicies() []AutoscalePolicy {
	return []AutoscalePolicy{AutoscaleQueuePressure, AutoscaleKVUtilization,
		AutoscaleSLOTarget, AutoscalePredictive}
}

// ForecastSpec tunes the predictive policy's arrival-rate model. The zero
// value selects the defaults noted per field.
type ForecastSpec struct {
	// Alpha and Beta are the Holt double-exponential smoothing gains for
	// the rate level and trend (defaults 0.35 and 0.15).
	Alpha, Beta float64
	// RatePerReplica is the steady arrival rate in req/s one replica
	// absorbs without queue growth (default 0.6, roughly one RTX-4090
	// Llama3-8B replica on the session workloads) — the capacity model
	// the forecast is divided by to size the pool.
	RatePerReplica float64
	// Headroom scales the forecast before sizing the pool (default 1.0).
	Headroom float64
}

// AutoscaleSpec parameterizes SLO-driven replica autoscaling. The replica
// layout (Replicas or ReplicaSpecs) sizes the maximum pool: a homogeneous
// layout stretches to MaxReplicas automatically, a heterogeneous layout
// must list exactly MaxReplicas replicas.
type AutoscaleSpec struct {
	// Policy selects the scale-decision policy (default
	// AutoscaleQueuePressure).
	Policy AutoscalePolicy

	// MinReplicas and MaxReplicas bound the in-service replica set
	// (defaults: 1 and the replica layout size). InitialReplicas is the
	// active count at t=0 (default MinReplicas).
	MinReplicas, MaxReplicas, InitialReplicas int

	// ScaleToZero forces MinReplicas to 0 and fronts the cluster with a
	// gateway queue: arrivals while no replica is active are buffered
	// (bounded by GatewayDepth, excess shed and counted), trigger a
	// cold-start scale-up at their own instant, and drain FIFO into the
	// first replica that warms — queue time charged inside their TTFT.
	ScaleToZero bool

	// GatewayDepth bounds the scale-to-zero gateway buffer (default 512;
	// negative means zero capacity — every zero-replica arrival sheds,
	// though each still triggers the cold start).
	GatewayDepth int

	// TargetP99TTFT is the slo-target policy's latency goal (default 2s).
	TargetP99TTFT time.Duration

	// Forecast tunes the predictive policy's arrival-rate model; nil
	// selects the defaults.
	Forecast *ForecastSpec

	// WarmupSeconds is the latency a scale-up pays before the new replica
	// accepts traffic — model load plus allocator init (default 8;
	// negative means instant).
	WarmupSeconds float64

	// ControlEverySeconds is the autoscaler control-loop tick (default 1).
	ControlEverySeconds float64

	// Prewarm overlaps each warm-up with KV pre-warming: the hottest
	// pinned session prefixes migrate from the active replicas to the
	// warming one over the interconnect, so its first requests hit the
	// prefix cache instead of recomputing.
	Prewarm bool

	// PrewarmTopK caps the pins shipped per pre-warm (default 8).
	PrewarmTopK int

	// ScaleUpPressure / ScaleDownPressure tune the queue-pressure policy:
	// outstanding requests per provisioned replica above which to grow
	// (default 8) and below which to shrink (default 1).
	ScaleUpPressure, ScaleDownPressure float64

	// KVUtilHigh / KVUtilLow tune the kv-utilization policy: pooled
	// used-page fractions above which to grow (default 0.85) and below
	// which to shrink (default 0.30).
	KVUtilHigh, KVUtilLow float64
}

// policy constructs the internal autoscale policy the spec names.
func (s AutoscaleSpec) policy() (autoscale.Policy, error) {
	switch s.Policy {
	case "", AutoscaleQueuePressure:
		return autoscale.NewQueuePressure(autoscale.QueuePressureConfig{
			UpPressure:   s.ScaleUpPressure,
			DownPressure: s.ScaleDownPressure,
		}), nil
	case AutoscaleKVUtilization:
		return autoscale.NewKVUtilization(autoscale.KVUtilizationConfig{
			HighUtil: s.KVUtilHigh,
			LowUtil:  s.KVUtilLow,
		}), nil
	case AutoscaleSLOTarget:
		return autoscale.NewSLOTarget(autoscale.SLOTargetConfig{
			TargetP99: s.TargetP99TTFT,
		}), nil
	case AutoscalePredictive:
		var f ForecastSpec
		if s.Forecast != nil {
			f = *s.Forecast
		}
		return autoscale.NewPredictive(autoscale.PredictiveConfig{
			Alpha:          f.Alpha,
			Beta:           f.Beta,
			RatePerReplica: f.RatePerReplica,
			Headroom:       f.Headroom,
		}), nil
	default:
		return nil, fmt.Errorf("tokenflow: unknown autoscale policy %q (have %v)",
			s.Policy, AutoscalePolicies())
	}
}

// ReplicaResult reports one replica's share of a cluster run.
type ReplicaResult struct {
	// ID is the replica index.
	ID int
	// GPU names the replica's device.
	GPU string
	// Routed counts requests the policy assigned to this replica.
	Routed int
	// PrefixHits counts requests this replica admitted with a session
	// prefix-cache hit.
	PrefixHits int64
	// PinnedPrefixPages is the replica's KV pool pages still held by
	// session prefix pins at the end of the run; PeakPinnedPages the
	// run's maximum — the memory the prefix cache actually charged.
	PinnedPrefixPages int
	PeakPinnedPages   int
	// PrefixEvictions counts pinned prefixes this replica evicted under
	// memory pressure.
	PrefixEvictions int64
	// HostReloads counts evicted prefixes this replica reloaded from its
	// host tier instead of recomputing; HostMirroredPages is the host
	// memory its evicted pins' mirrors still occupy at the end of the run,
	// HostMirrorBytes the same footprint in bytes (what a host-memory
	// budget would charge).
	HostReloads       int64
	HostMirroredPages int
	HostMirrorBytes   int64
	// State is the replica's lifecycle state at the end of the run:
	// "off", "warming", "active", or "draining" ("active" always, in a
	// static cluster).
	State string
	// GPUSeconds is the simulated time this replica spent in service
	// (warming, active, or draining).
	GPUSeconds float64
	// Result is the replica's own serving report (covering only the
	// requests it served).
	Result *Result
}

// ScaleEvent is one replica lifecycle transition the autoscaler drove:
// "warmup" (off → warming), "activate" (warming → active), "reactivate"
// (a scale-up cancelled an in-progress drain), "drain" (active →
// draining), "off" (drain completed).
type ScaleEvent struct {
	AtSeconds float64
	Kind      string
	Replica   int
}

// ReplicaCountSample is one control-tick sample of the per-state replica
// counts.
type ReplicaCountSample struct {
	AtSeconds                 float64
	Active, Warming, Draining int
}

// ImbalanceSample is one point of the cluster's load-imbalance series.
type ImbalanceSample struct {
	AtSeconds float64
	// Imbalance is the peak-to-mean ratio of per-replica outstanding
	// requests at the instant (1.0 = balanced or idle).
	Imbalance float64
}

// ClusterOutcome is a cluster run's scalar outcome ledger — imbalance,
// prefix-cache hits and residency, migrations, host-tier reloads,
// autoscaling, gateway and chaos counters, forecast error, and the event
// count — each field declared and documented once, on the simulator's own
// ledger. ClusterResult embeds it, so every counter reads as a field of the
// result (res.Migrations, res.Crashes).
type ClusterOutcome = cluster.Outcome

// ClusterResult reports a completed cluster simulation.
type ClusterResult struct {
	// Router is the policy that served the run.
	Router RouterPolicy

	// Cluster is the merged cluster-level report: TTFT percentiles,
	// throughput, and QoS over every request across replicas. With one
	// replica and round-robin routing it is identical to Run's Result.
	Cluster *Result

	// Replicas lists per-replica results in replica order.
	Replicas []ReplicaResult

	// ClusterOutcome holds every scalar outcome counter of the run.
	ClusterOutcome

	// ImbalanceSeries samples the per-replica load imbalance over time
	// (requires SampleEverySeconds).
	ImbalanceSeries []ImbalanceSample

	// Transfers is the fabric's per-class traffic ledger: every byte the
	// run moved, split by purpose (sync, evict, load, reload, migrate,
	// prewarm, drain).
	Transfers []TransferClassStats

	// ScaleEvents logs the lifecycle transitions the autoscaler drove and
	// ReplicaSeries samples the per-state replica counts per control tick
	// (both empty in a static cluster).
	ScaleEvents   []ScaleEvent
	ReplicaSeries []ReplicaCountSample

	// GatewayDepthSeries samples the scale-to-zero gateway buffer depth per
	// control tick (empty without ScaleToZero).
	GatewayDepthSeries []GatewaySample

	// PrefixIndex is the gateway index's accounting when the run
	// maintained one (Config.PrefixIndex or an indexed Router); nil
	// otherwise.
	PrefixIndex *PrefixIndexStats

	// Obs holds the flight-recorder capture when the run was instrumented
	// (Config.Obs); nil otherwise. Setting it aside, an instrumented
	// ClusterResult is identical to the uninstrumented one.
	Obs *ObsCapture

	// Attribution is the critical-path latency breakdown when
	// Config.Obs.Attribution was on; nil otherwise. Like Obs, it is pure
	// observation: setting it aside, the result is identical to an
	// uninstrumented run.
	Attribution *AttributionReport
}

// GatewaySample is one control-tick sample of the scale-to-zero gateway
// buffer depth.
type GatewaySample struct {
	AtSeconds float64
	Depth     int
}

// TransferClassStats totals one transfer class's traffic across the
// cluster's fabric.
type TransferClassStats struct {
	// Class labels the traffic's purpose: "sync", "evict", "load",
	// "reload", "migrate", "prewarm", or "drain".
	Class string
	// Transfers and Bytes count the class's bookings; BusySeconds its
	// summed bottleneck wire time (queueing excluded).
	Transfers   int64
	Bytes       int64
	BusySeconds float64
}

// expandReplicaSpecs resolves the cluster layout into one (GPU,
// MemFraction) pair per replica, applying the embedded Config's values as
// defaults.
func expandReplicaSpecs(cfg ClusterConfig) ([]ReplicaSpec, error) {
	base := ReplicaSpec{GPU: cfg.GPU, MemFraction: cfg.MemFraction}
	if base.GPU == "" {
		base.GPU = "H200"
	}
	if len(cfg.ReplicaSpecs) == 0 {
		n := cfg.Replicas
		if n == 0 {
			n = 1
		}
		if n < 1 {
			return nil, fmt.Errorf("tokenflow: replica count %d must be >= 1", n)
		}
		out := make([]ReplicaSpec, n)
		for i := range out {
			out[i] = base
		}
		return out, nil
	}
	var out []ReplicaSpec
	for i, s := range cfg.ReplicaSpecs {
		if s.Count < 0 {
			return nil, fmt.Errorf("tokenflow: replica spec %d has negative count %d", i, s.Count)
		}
		count := s.Count
		if count == 0 {
			count = 1
		}
		r := s
		if r.GPU == "" {
			r.GPU = base.GPU
		}
		if r.MemFraction == 0 {
			r.MemFraction = base.MemFraction
		}
		for k := 0; k < count; k++ {
			out = append(out, r)
		}
	}
	return out, nil
}

// RunCluster simulates the replica pool (Replicas identical copies, or
// the heterogeneous layout of ReplicaSpecs) serving the workload behind
// the selected routing policy, all on one virtual clock.
func RunCluster(cfg ClusterConfig, w Workload) (*ClusterResult, error) {
	if cfg.Router == "" {
		cfg.Router = RouterRoundRobin
	}
	if cfg.System == "" {
		cfg.System = SystemTokenFlow
	}
	reps, err := expandReplicaSpecs(cfg)
	if err != nil {
		return nil, err
	}
	var asCfg *cluster.AutoscaleConfig
	if cfg.Autoscale != nil {
		spec := *cfg.Autoscale // defaults are resolved on a copy; the caller's spec is reusable
		if spec.MaxReplicas == 0 {
			spec.MaxReplicas = len(reps)
			if spec.MaxReplicas < spec.MinReplicas {
				spec.MaxReplicas = spec.MinReplicas
			}
		}
		if len(cfg.ReplicaSpecs) == 0 && len(reps) != spec.MaxReplicas {
			// A homogeneous layout stretches to the autoscaling bound.
			base := reps[0]
			reps = make([]ReplicaSpec, spec.MaxReplicas)
			for i := range reps {
				reps[i] = base
			}
		}
		if spec.MinReplicas > spec.MaxReplicas {
			return nil, fmt.Errorf("tokenflow: autoscale min %d exceeds max %d",
				spec.MinReplicas, spec.MaxReplicas)
		}
		if len(reps) != spec.MaxReplicas {
			return nil, fmt.Errorf("tokenflow: replica layout has %d replicas, autoscale max is %d",
				len(reps), spec.MaxReplicas)
		}
		pol, err := spec.policy()
		if err != nil {
			return nil, err
		}
		asCfg = &cluster.AutoscaleConfig{
			Policy:       pol,
			Min:          spec.MinReplicas,
			Max:          spec.MaxReplicas,
			Initial:      spec.InitialReplicas,
			Warmup:       simclock.Duration(spec.WarmupSeconds),
			ControlEvery: simclock.Duration(spec.ControlEverySeconds),
			Prewarm:      spec.Prewarm,
			PrewarmTopK:  spec.PrewarmTopK,
			ScaleToZero:  spec.ScaleToZero,
			GatewayDepth: spec.GatewayDepth,
		}
	}
	pol, err := router.ByName(string(cfg.Router))
	if err != nil {
		return nil, err
	}
	chaosSpec, err := cfg.Chaos.chaosSpec()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Replicas:         len(reps),
		Policy:           pol,
		SampleEvery:      simclock.Duration(cfg.SampleEverySeconds),
		MaxSimTime:       simclock.Duration(cfg.MaxSimTimeSeconds),
		Migrate:          cfg.Migrate,
		MigrationPolicy:  cluster.MigrationPolicy(cfg.MigrationPolicy),
		InterconnectGBps: cfg.InterconnectGBps,
		Topology:         cfg.Topology.fabricSpec(),
		Autoscale:        asCfg,
		PrefixIndex:      cfg.PrefixIndex.indexSpec(),
		Shards:           cfg.Shards,
		Obs:              cfg.Obs.options(),
		Chaos:            chaosSpec,
	}, func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		rcfg := cfg.Config
		rcfg.GPU = reps[i].GPU
		rcfg.MemFraction = reps[i].MemFraction
		ecfg, err := buildEngineConfig(rcfg)
		if err != nil {
			return nil, err
		}
		ecfg.Clock = clock
		ecfg.SampleEvery = 0 // the cluster drives sampling
		ecfg.Fabric = ep
		return engine.New(ecfg)
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := cl.Run(toTrace(w))
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	out := &ClusterResult{
		Router: cfg.Router,
		Cluster: convertParts(cfg.System, res.Report, res.Requests, res.Samples,
			res.Makespan, res.TimedOut),
		ClusterOutcome: res.Outcome,
		PrefixIndex:    res.PrefixIndex,
	}
	for _, p := range res.GatewaySeries {
		out.GatewayDepthSeries = append(out.GatewayDepthSeries, GatewaySample{
			AtSeconds: p.At.Seconds(), Depth: p.Depth,
		})
	}
	for _, p := range res.ImbalanceSeries {
		out.ImbalanceSeries = append(out.ImbalanceSeries, ImbalanceSample{
			AtSeconds: p.At.Seconds(), Imbalance: p.Value,
		})
	}
	for _, cs := range res.TransferClasses {
		out.Transfers = append(out.Transfers, TransferClassStats{
			Class:       cs.Class.String(),
			Transfers:   cs.Transfers,
			Bytes:       cs.Bytes,
			BusySeconds: cs.Busy.Seconds(),
		})
	}
	for _, ev := range res.ScaleEvents {
		out.ScaleEvents = append(out.ScaleEvents, ScaleEvent{
			AtSeconds: ev.At.Seconds(), Kind: string(ev.Kind), Replica: ev.Replica,
		})
	}
	for _, p := range res.ReplicaSeries {
		out.ReplicaSeries = append(out.ReplicaSeries, ReplicaCountSample{
			AtSeconds: p.At.Seconds(),
			Active:    p.Active, Warming: p.Warming, Draining: p.Draining,
		})
	}
	for i, rs := range res.PerReplica {
		kv := rs.Result.KV
		out.Replicas = append(out.Replicas, ReplicaResult{
			ID:                rs.ID,
			GPU:               reps[i].GPU,
			Routed:            rs.Routed,
			PrefixHits:        rs.Result.PrefixHits,
			PinnedPrefixPages: kv.PinnedPages,
			PeakPinnedPages:   kv.PeakPinnedPages,
			PrefixEvictions:   kv.PrefixEvictions,
			HostReloads:       kv.HostReloads,
			HostMirroredPages: kv.HostMirroredPages,
			HostMirrorBytes:   kv.HostMirrorBytes,
			State:             rs.State.String(),
			GPUSeconds:        rs.GPUSeconds,
			Result:            convert(cfg.System, rs.Result),
		})
	}
	if res.Obs != nil {
		out.Obs = newObsCapture(res.Obs, "cluster-"+string(cfg.Router), wall)
		if cfg.Obs.Out != "" {
			if _, err := out.Obs.WriteFiles(cfg.Obs.Out); err != nil {
				return nil, err
			}
		}
	}
	if res.Attribution != nil {
		out.Attribution = res.Attribution
		if cfg.Obs.Out != "" {
			if err := writeAttributionJSON(cfg.Obs.Out, res.Attribution); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
