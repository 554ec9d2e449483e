package cluster

// Sharded parallel execution: Config.Shards > 1 partitions the replicas
// across worker goroutines. Replica i lives on shard i mod Shards, and each
// shard owns a private simclock sub-clock carrying that replica subset's
// engine events (iterations, consumption ticks, KV transfers on the
// replica's own host links). The cluster's coordinator clock keeps
// everything cross-replica: arrivals and routing, the sampling and
// autoscale control loops, gateway drains, and migration completions.
//
// Execution alternates between the coordinator and the shards. Before the
// coordinator fires its next event at time T, every shard runs its own
// events strictly before T in parallel and then aligns its clock at T
// (simclock.AdvanceTo), so a cross-shard effect landing at T — an injected
// arrival, a migration install — observes a consistent "now" everywhere.
// At an exact tie the coordinator goes first. Shards never touch the
// coordinator clock, another shard's clock, or another shard's engines;
// the only cross-shard state written from shard goroutines is the
// per-shard first-token buffer, merged into the shared TTFT window at each
// barrier in deterministic (time, replica) order. Fabric class accounting
// is per-replica-row (single writer) and interconnect links are booked
// only by the coordinator, so bookings from parallel shards never race.
//
// The flight recorder follows the same single-writer discipline: each
// shard owns a recorder and profiler, and every emission routes by the
// event's replica (Cluster.recFor) — a replica's lifecycle events are
// written either by its shard goroutine or by the coordinator while the
// shards are quiescent, never both at once. The per-shard streams merge
// deterministically at collect on the total (time, replica, recorder,
// sequence) order, producing exports byte-identical to the
// single-threaded run.
//
// The result is deterministic and — because engine event times are
// float-derived while coordinator timers tick at configured intervals, so
// cross-clock ties do not arise in practice — identical to the
// single-threaded run of the same configuration, timed-out runs included:
// runSharded is the one loop for every shard count (with zero shards it
// just has no shards to advance), so every run fires exactly the events
// at or before MaxSimTime. The determinism suite asserts deep equality
// across shard counts.
//
// When the configuration needs no coordinator events at all — static
// replica set, round-robin routing, no migration, no sampling — arrivals
// are pre-routed onto the shard clocks at prime time and the whole run is
// one parallel drain with zero barriers.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/prefixindex"
	"repro/internal/request"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ttftSample is one shard-buffered first-token observation awaiting its
// barrier merge into the shared TTFT window.
type ttftSample struct {
	at      simclock.Time
	replica int
	ttft    time.Duration
}

// shard is one replica partition: a private sub-clock plus the scratch
// state its worker goroutine owns between barriers.
type shard struct {
	id    int
	clock *simclock.Clock
	// arena batch-allocates fast-path arrival requests on the shard that
	// will serve them, keeping the hot-path allocator uncontended.
	arena request.Arena
	// ttft buffers first-token observations made by this shard's engines
	// since the last barrier (only filled when a TTFT-driven autoscale
	// policy is active).
	ttft []ttftSample
	// pubs buffers prefix-index publications emitted by this shard's
	// replicas since the last barrier; the coordinator merges them into
	// the index in (time, replica, sequence) order (index.go).
	pubs []prefixindex.Pub
}

// advance runs every shard event strictly before barrier — never past the
// deadline — then aligns the shard clock at the barrier. Runs on a worker
// goroutine when several shards have work, inline otherwise.
func (sh *shard) advance(barrier, deadline simclock.Time) {
	clk := sh.clock
	for {
		t := clk.Peek()
		if t >= barrier || t > deadline {
			break
		}
		clk.Step()
	}
	if barrier != simclock.Forever && barrier <= deadline {
		clk.AdvanceTo(barrier)
	}
}

// shardOf maps a replica id to its owning shard.
func (c *Cluster) shardOf(replica int) *shard {
	return c.shards[replica%len(c.shards)]
}

// fastShardPath reports whether the run needs no coordinator events:
// static replica set, round-robin routing (whose pick for arrival k is
// k mod replicas by construction), no migration, no sampling loop, and
// no event retention (the routed path emits arrival and route-decision
// events the fast path skips; attribution is fine — it reads only the
// replica-scoped lifecycle events the engines emit on either path).
// Arrivals then pre-route straight onto the shard clocks and the whole
// simulation is one barrier-free parallel drain.
func (c *Cluster) fastShardPath() bool {
	return len(c.shards) > 0 &&
		c.cfg.Autoscale == nil &&
		c.chaos == nil &&
		!c.cfg.Migrate &&
		c.cfg.SampleEvery == 0 &&
		!c.cfg.Obs.Events &&
		c.idx == nil &&
		c.cfg.Policy.Name() == router.NameRoundRobin
}

// primeSharded schedules the workload's arrivals directly on the shard
// clocks (fast path only). Equivalent to the routed path: round-robin
// assigns arrival k to replica k mod N, requests allocate from the owning
// shard's arena, and arrival order within a shard follows arrival id. An
// arrival counts as routed when it fires, as on the routed path, so a run
// the deadline cuts short does not count the arrivals it never reached;
// only the owning shard goroutine writes the counter, and collect reads
// it after the join.
func (c *Cluster) primeSharded(w trace.Workload) {
	n := len(c.replicas)
	for i, it := range w.Items {
		it := it
		id := i
		rep := c.replicas[i%n]
		sh := c.shardOf(rep.id)
		sh.clock.At(it.Arrival, func(now simclock.Time) {
			rep.routed++
			r := sh.arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			rep.eng.Inject(r, now)
		})
	}
	c.arrivalsDone = true
}

// runSharded is the cluster's one main loop, for every shard count: run
// the shards up to each coordinator event, fire it, repeat; when the
// coordinator runs dry (or its next event lies past the deadline), drain
// the shards and stop. With zero shards it simply steps the coordinator
// clock. Events at or before the deadline fire and none after it, on every
// clock. It reports whether the run timed out.
func (c *Cluster) runSharded(deadline simclock.Time) (timedOut bool) {
	for {
		next := c.clock.Peek()
		if next == simclock.Forever {
			c.advanceShards(simclock.Forever, deadline)
			break
		}
		if next > deadline {
			c.advanceShards(simclock.Forever, deadline)
			timedOut = true
			break
		}
		c.advanceShards(next, deadline)
		c.clock.Step()
	}
	if !timedOut {
		for _, sh := range c.shards {
			if sh.clock.Peek() != simclock.Forever {
				timedOut = true // shard work remains beyond the deadline
				break
			}
		}
	}
	// Align every drained shard clock at the cluster's final instant. In a
	// single-clock run every engine reads the same final time (an idle
	// replica's report falls back to it for its makespan); shard clocks
	// must agree or a zero-routed replica's numbers would depend on its
	// shard assignment. Shards still holding events (timed out) keep their
	// own position.
	end := c.endNow()
	for _, sh := range c.shards {
		if sh.clock.Peek() == simclock.Forever {
			sh.clock.AdvanceTo(end)
		}
	}
	return timedOut
}

// advanceShards brings every shard to the barrier: shards with runnable
// work execute it (in parallel when more than one has any — the common
// stretch between consecutive coordinator events has at most one, which
// runs inline without spawning), idle shards just align their clocks. The
// shard-buffered TTFT observations merge afterwards, on the coordinator.
func (c *Cluster) advanceShards(barrier, deadline simclock.Time) {
	if len(c.shards) == 0 {
		return
	}
	busy := c.busyShards[:0]
	for _, sh := range c.shards {
		if t := sh.clock.Peek(); t < barrier && t <= deadline {
			busy = append(busy, sh)
		} else if barrier != simclock.Forever && barrier <= deadline {
			sh.clock.AdvanceTo(barrier)
		}
	}
	c.busyShards = busy
	switch len(busy) {
	case 0:
	case 1:
		busy[0].advance(barrier, deadline)
	default:
		var wg sync.WaitGroup
		wg.Add(len(busy))
		for _, sh := range busy {
			sh := sh
			go func() {
				defer wg.Done()
				sh.advance(barrier, deadline)
			}()
		}
		wg.Wait()
	}
	c.mergeTTFT()
	c.mergePubs()
}

// mergeTTFT folds the shard-local first-token observations gathered since
// the previous barrier into the shared TTFT window in deterministic
// (time, replica) order, so the control loop's P99 signal is independent
// of shard scheduling. Within one replica observations are already in
// time order, so the stable sort is a full ordering.
func (c *Cluster) mergeTTFT() {
	if c.ttftWin == nil {
		return
	}
	merged := c.ttftScratch[:0]
	for _, sh := range c.shards {
		merged = append(merged, sh.ttft...)
		sh.ttft = sh.ttft[:0]
	}
	c.ttftScratch = merged
	if len(merged) == 0 {
		return
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].at != merged[j].at {
			return merged[i].at < merged[j].at
		}
		return merged[i].replica < merged[j].replica
	})
	for _, s := range merged {
		c.ttftWin.Observe(s.at, s.ttft)
	}
}

// endNow is the final simulation instant: the coordinator clock in
// single-threaded runs, the furthest clock across coordinator and shards
// in sharded ones (a drained shard's last event can outlast the last
// coordinator event).
func (c *Cluster) endNow() simclock.Time {
	t := c.clock.Now()
	for _, sh := range c.shards {
		if n := sh.clock.Now(); n > t {
			t = n
		}
	}
	return t
}

// eventsProcessed totals fired events across every clock of the run — a
// determinism witness: a sharded run fires exactly the events of its
// single-threaded twin, just distributed over sub-clocks.
func (c *Cluster) eventsProcessed() uint64 {
	n := c.clock.Processed()
	for _, sh := range c.shards {
		n += sh.clock.Processed()
	}
	return n
}
