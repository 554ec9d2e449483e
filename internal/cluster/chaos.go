package cluster

// Chaos wiring: fault injection on the virtual clock (internal/chaos) and
// the recovery machinery that answers it. Every fault fires as a
// coordinator-clock event — in sharded runs the shards are quiescent at
// that instant, so the coordinator may tear down shard-owned engines and
// cancel shard-clock events without racing — which keeps a chaos run
// deterministic at any shard count.
//
// Crash: the replica's engine is killed in place (internal/engine Crash):
// every in-flight request is orphaned, its pins and host mirrors vanish,
// and routing stops seeing the replica immediately. The gateway notices
// after DetectDelay (the missed-heartbeat model) and re-enters each orphan
// through a capped exponential-backoff retry: a survivor is picked by
// least outstanding work, the request resets (its partial output died with
// the replica; its arrival stamp survives, so TTFT stays honest), and it
// injects under QueueCauseRetry so attribution charges the loss to the
// retry phase. When no survivor exists the orphan re-enters the
// scale-to-zero gateway if there is one, otherwise it backs off and tries
// again until RetryMax, after which it counts failed. Under autoscaling
// the crashed replica is off; the normal control loop backfills it through
// the warm-up path (Backfills counts crashed replicas resurrected that
// way).
//
// Brownout: the replica's engine multiplies every iteration launched in
// the window by Factor — the slow-node model — and recovers by itself.
//
// Link flap: the unordered replica pair goes dark for the window. Pin
// transfers already on the wire across the pair abort — the booking stays
// booked (book-time accounting, mirroring the fabric ledger), the donor
// un-stakes its pin, and a routed request waiting on the aborted KV is
// delivered anyway to recompute. New transfers across a down pair are
// declined at migratePin.
//
// Redundancy (Spec.Redundancy K >= 2): a coordinator loop copies every
// pinned session prefix to K-1 backup replicas' host-mirror tiers over the
// fabric's replicate class, bounded by ReplicateConcurrency. After a
// crash, sessions whose pins died but whose mirrors survive on a backup
// re-pin from that mirror over the backup's own h2d link — retried turns
// reload instead of recomputing, which is exactly the post-crash tail
// damage the chaos experiment prices against the replication traffic.

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// linkKey canonicalizes an unordered interconnect pair (a < b).
type linkKey struct{ a, b int }

func pairKey(x, y int) linkKey {
	if x > y {
		x, y = y, x
	}
	return linkKey{x, y}
}

// flight is one pin transfer on the interconnect wire, registered so a
// crash or link flap can tear it down mid-flight. req, when set, is the
// routed request whose inject rides the transfer completion.
type flight struct {
	donor, target *replica
	session       int
	handle        simclock.Handle
	req           *request.Request
}

// repinJob asks one surviving replica to re-pin a session from its own
// host mirror after the pin holder crashed.
type repinJob struct {
	rep     *replica
	session int
}

// copyKey identifies one in-flight redundancy copy (target, session), so
// consecutive replication ticks do not re-book a copy already on the wire.
type copyKey struct {
	target  int
	session int
}

// chaosRuntime is the cluster's chaos state. Nil when the spec is
// inactive — every chaos hook is gated on that nil, which is what makes a
// zero-fault spec byte-identical to no spec at all.
type chaosRuntime struct {
	spec *chaos.Spec
	plan []chaos.Fault

	// retryPending counts orphans between crash and re-entry;
	// replicationsInFlight bounds concurrent redundancy transfers (copies
	// and re-pins share the budget). Both hold done() false.
	retryPending         int
	replicationsInFlight int

	// repinQueue holds post-crash mirror re-pins awaiting a concurrency
	// slot; copying marks redundancy copies already on the wire; failed
	// collects requests that exhausted their retry budget.
	repinQueue []repinJob
	copying    map[copyKey]bool
	failed     []*request.Request

	// linkDown maps a flapped pair to the instant it recovers; flights is
	// the in-flight pin-transfer registry aborts tear down.
	linkDown map[linkKey]simclock.Time
	flights  []*flight
}

// initChaos validates the spec and arms the runtime when it is active.
func (c *Cluster) initChaos() error {
	spec := c.cfg.Chaos
	if err := spec.Validate(len(c.replicas)); err != nil {
		return err
	}
	if !spec.Active() {
		return nil
	}
	c.chaos = &chaosRuntime{
		spec:     spec,
		plan:     spec.Resolved(len(c.replicas)),
		copying:  map[copyKey]bool{},
		linkDown: map[linkKey]simclock.Time{},
	}
	return nil
}

// scheduleChaos places every resolved fault on the coordinator clock and
// arms the redundancy replication loop.
func (c *Cluster) scheduleChaos() {
	if c.chaos == nil {
		return
	}
	for _, f := range c.chaos.plan {
		f := f
		switch f.Kind {
		case chaos.Crash:
			c.clock.At(f.At, func(now simclock.Time) {
				c.injectCrash(c.replicas[f.Replica], now)
			})
		case chaos.Brownout:
			c.clock.At(f.At, func(now simclock.Time) {
				c.injectBrownout(c.replicas[f.Replica], f, now)
			})
		case chaos.LinkFlap:
			c.clock.At(f.At, func(now simclock.Time) {
				c.injectLinkFlap(f, now)
			})
		}
	}
	if c.chaos.spec.Redundancy > 1 {
		every := c.chaos.spec.ReplicateEveryOrDefault()
		var tick func(now simclock.Time)
		tick = func(now simclock.Time) {
			c.replicateTick(now)
			if !c.done() {
				c.clock.After(every, tick)
			}
		}
		c.clock.After(every, tick)
	}
}

// linkUp reports whether the interconnect pair is currently usable. At the
// exact recovery instant the link counts as up, whatever the event order.
func (c *Cluster) linkUp(a, b int, now simclock.Time) bool {
	if c.chaos == nil || len(c.chaos.linkDown) == 0 {
		return true
	}
	until, ok := c.chaos.linkDown[pairKey(a, b)]
	return !ok || now >= until
}

// injectCrash kills one replica at now. A replica already crashed (or
// never in service) absorbs the fault as a no-op.
func (c *Cluster) injectCrash(rep *replica, now simclock.Time) {
	if rep.eng.Crashed() || (c.cfg.Autoscale != nil && rep.state == autoscale.Off) {
		return
	}
	// Snapshot the pinned sessions before the engine wipes them: these are
	// the pins whose surviving host mirrors re-pin after detection.
	lost := rep.eng.HottestPrefixes(0)
	orphans, pinsLost, mirrorsLost := rep.eng.Crash(now)
	if rep.state.InService() {
		rep.busy += now.Sub(rep.sinceOn)
		rep.sinceOn = 0
	}
	rep.state = autoscale.Off
	c.noteActive(rep.id, false)
	c.event(now, ScaleCrash, rep.id)
	c.out.Crashes++
	c.recFor(rep.id).Emit(now, obs.KindCrash, rep.id, -1, 0,
		int64(len(orphans)), int64(pinsLost), int64(mirrorsLost), 0, "")

	// Pin transfers touching the dead replica die with it.
	for _, fl := range c.flightsTouching(rep) {
		c.abortFlight(fl, now)
	}

	detect := now.Add(c.chaos.spec.DetectDelayOrDefault())
	backoff := c.chaos.spec.RetryBackoffOrDefault()
	for _, r := range orphans {
		attempt := r.Retries + 1
		c.scheduleRetry(r, attempt, detect.Add(retryDelay(backoff, attempt)))
	}

	// Queue the mirror-driven re-pins: for each lost pin, the first
	// surviving replica holding a host mirror of the session restores the
	// device copy from it, once the crash is detected.
	var jobs []repinJob
	for _, info := range lost {
		for _, peer := range c.replicas {
			if peer == rep || peer.eng.Crashed() {
				continue
			}
			if c.cfg.Autoscale != nil && !peer.state.InService() {
				continue
			}
			if peer.eng.HostMirrorSize(info.Session) > 0 {
				jobs = append(jobs, repinJob{rep: peer, session: info.Session})
				break
			}
		}
	}
	if len(jobs) > 0 {
		c.clock.At(detect, func(t simclock.Time) {
			c.chaos.repinQueue = append(c.chaos.repinQueue, jobs...)
			c.startRepins(t)
		})
	}
}

// retryDelay is the exponential backoff for the attempt-th re-entry.
func retryDelay(base time.Duration, attempt int) time.Duration {
	return base << uint(attempt-1)
}

// scheduleRetry arms one orphan's re-entry. retryPending holds the run
// open until every orphan resolves (re-routed, buffered, or failed).
func (c *Cluster) scheduleRetry(r *request.Request, attempt int, at simclock.Time) {
	c.chaos.retryPending++
	c.clock.At(at, func(now simclock.Time) {
		c.chaos.retryPending--
		c.retryNow(r, attempt, now)
	})
}

// retryNow re-enters one orphaned request: re-route to the survivor with
// the least outstanding work, fall back to the scale-to-zero gateway when
// nothing survives, back off and try again while the budget lasts, and
// fail permanently past RetryMax. Re-entries never emit a route decision —
// the request was already routed once at arrival — so the admission ledger
// counts each request exactly once.
func (c *Cluster) retryNow(r *request.Request, attempt int, now simclock.Time) {
	spec := c.chaos.spec
	views := c.routable()
	if len(views) == 0 {
		if c.gatewayEnabled() {
			c.ensureColdStart(now)
			if len(c.gateway) < c.gatewayCap() {
				// Re-enter through the gateway without touching its
				// admission counters: this request was already admitted.
				r.ResetForRetry(c.clock)
				c.gateway = append(c.gateway, r)
				c.out.Retries++
				c.rec.Emit(now, obs.KindRetry, -1, r.ID, r.Session,
					int64(attempt), 0, 0, 0, "gateway")
				return
			}
		}
		if attempt < spec.RetryMaxOrDefault() {
			// No capacity yet (a double crash before backfill lands here):
			// burn one attempt and back off again.
			c.scheduleRetry(r, attempt+1, now.Add(retryDelay(spec.RetryBackoffOrDefault(), attempt+1)))
			return
		}
		r.ResetForRetry(c.clock)
		c.chaos.failed = append(c.chaos.failed, r)
		c.out.RetryFailures++
		c.rec.Emit(now, obs.KindRetry, -1, r.ID, r.Session,
			int64(attempt), 0, 0, 0, "failed")
		return
	}
	// Prefix-aware placement: a survivor already holding the session's
	// pin (a completed repin) or a host mirror of it (redundancy copy,
	// reloadable without recompute) beats the least-loaded one — the
	// orphan's prefill is the expensive part of the retry. Ties fall
	// back to fewest outstanding requests; view order is id order, so
	// the pick is deterministic.
	var rep *replica
	var best int
	for _, v := range views {
		cand := v.(*replica)
		score := cand.eng.CachedPrefixTokens(r.Session)
		if m := cand.eng.HostMirrorSize(r.Session); m > score {
			score = m
		}
		if rep == nil || score > best ||
			(score == best && cand.eng.OutstandingRequests() < rep.eng.OutstandingRequests()) {
			rep, best = cand, score
		}
	}
	r.ResetForRetry(c.clock)
	rep.routed++
	c.out.Retries++
	c.recFor(rep.id).Emit(now, obs.KindRetry, rep.id, r.ID, r.Session,
		int64(attempt), 0, 0, 0, "reroute")
	rep.eng.InjectCause(r, now, obs.QueueCauseRetry)
}

// shedCrashed drops an arrival that found every replica dead and no
// gateway to wait in — the cluster-level 503. It rides the gateway-shed
// ledger (and its event kind), so the admission conservation laws hold
// unchanged.
func (c *Cluster) shedCrashed(id int, it trace.Item, now simclock.Time) {
	c.out.GatewayShed++
	c.rec.Emit(now, obs.KindGatewayShed, -1, id, it.Session,
		int64(it.PromptLen), int64(it.OutputLen), 0, 0, "crash")
}

// injectBrownout opens one slow-node window: iterations launched inside it
// cost Factor times their modelled duration.
func (c *Cluster) injectBrownout(rep *replica, f chaos.Fault, now simclock.Time) {
	c.out.Brownouts++
	rep.eng.SetSlowdown(f.Factor)
	c.recFor(rep.id).Emit(now, obs.KindBrownout, rep.id, -1, 0, 0, 0, 0, f.Factor, "begin")
	c.clock.At(now.Add(f.Duration), func(t simclock.Time) {
		rep.eng.SetSlowdown(1)
		c.recFor(rep.id).Emit(t, obs.KindBrownout, rep.id, -1, 0, 0, 0, 0, f.Factor, "end")
	})
}

// injectLinkFlap takes one interconnect pair down for the fault's window:
// in-flight pin transfers across the pair abort, and new ones are declined
// until recovery. Overlapping flaps extend the window; only the flap whose
// deadline still stands emits the recovery event.
func (c *Cluster) injectLinkFlap(f chaos.Fault, now simclock.Time) {
	key := pairKey(f.From, f.To)
	until := now.Add(f.Duration)
	if cur, ok := c.chaos.linkDown[key]; !ok || until > cur {
		c.chaos.linkDown[key] = until
	}
	c.out.LinkFlaps++
	aborted := 0
	for _, fl := range c.flightsCrossing(key) {
		c.abortFlight(fl, now)
		aborted++
	}
	c.recFor(f.From).Emit(now, obs.KindLinkFlap, f.From, -1, 0,
		int64(f.To), int64(aborted), 0, 0, "down")
	c.clock.At(until, func(t simclock.Time) {
		if c.chaos.linkDown[key] == until {
			delete(c.chaos.linkDown, key)
			c.recFor(f.From).Emit(t, obs.KindLinkFlap, f.From, -1, 0,
				int64(f.To), 0, 0, 0, "up")
		}
	})
}

// flightsTouching lists the in-flight pin transfers with the replica at
// either end, in booking order.
func (c *Cluster) flightsTouching(rep *replica) []*flight {
	var out []*flight
	for _, fl := range c.chaos.flights {
		if fl.donor == rep || fl.target == rep {
			out = append(out, fl)
		}
	}
	return out
}

// flightsCrossing lists the in-flight pin transfers over the pair, in
// booking order.
func (c *Cluster) flightsCrossing(key linkKey) []*flight {
	var out []*flight
	for _, fl := range c.chaos.flights {
		if pairKey(fl.donor.id, fl.target.id) == key {
			out = append(out, fl)
		}
	}
	return out
}

// registerFlight records one pin transfer in the abort registry.
func (c *Cluster) registerFlight(fl *flight) {
	if c.chaos != nil {
		c.chaos.flights = append(c.chaos.flights, fl)
	}
}

// removeFlight forgets a flight that completed or aborted.
func (c *Cluster) removeFlight(fl *flight) {
	if c.chaos == nil {
		return
	}
	for i, f := range c.chaos.flights {
		if f == fl {
			c.chaos.flights = append(c.chaos.flights[:i], c.chaos.flights[i+1:]...)
			return
		}
	}
}

// abortFlight tears one pin transfer off the wire: the completion event
// cancels, the migration gating unwinds, a surviving donor un-stakes its
// pin, and a routed request riding the transfer is delivered to recompute —
// or handed to the retry path when its target is the replica that died.
// The booked bytes stay booked on both ledgers (book-time accounting).
func (c *Cluster) abortFlight(fl *flight, now simclock.Time) {
	c.removeFlight(fl)
	c.clock.Cancel(fl.handle)
	c.migrationsInFlight--
	fl.donor.outMigrations--
	fl.target.inMigrations--
	c.out.MigrationsAborted++
	if !fl.donor.eng.Crashed() {
		fl.donor.eng.AbortPrefixMigration(fl.session)
	}
	if fl.req == nil {
		return
	}
	if !fl.target.eng.Crashed() {
		// The KV never arrived; the routed request proceeds without it and
		// the target recomputes the prefix.
		fl.target.eng.InjectCause(fl.req, now, obs.QueueCauseMigrate)
		return
	}
	attempt := fl.req.Retries + 1
	detect := now.Add(c.chaos.spec.DetectDelayOrDefault())
	c.scheduleRetry(fl.req, attempt,
		detect.Add(retryDelay(c.chaos.spec.RetryBackoffOrDefault(), attempt)))
}

// startRepins drains the post-crash re-pin queue under the replication
// concurrency bound: each job re-pins one session on the survivor holding
// its mirror, over that replica's own h2d link on the replicate class.
// Completions free a slot and pull the next job.
func (c *Cluster) startRepins(now simclock.Time) {
	conc := c.chaos.spec.ReplicateConcurrencyOrDefault()
	for c.chaos.replicationsInFlight < conc && len(c.chaos.repinQueue) > 0 {
		job := c.chaos.repinQueue[0]
		c.chaos.repinQueue = c.chaos.repinQueue[1:]
		if job.rep.eng.Crashed() {
			continue
		}
		done, tokens, bytes, ok := job.rep.eng.RepinFromMirror(job.session, now)
		if !ok {
			continue
		}
		c.chaos.replicationsInFlight++
		c.out.Replications++
		c.out.ReplicatedBytes += bytes
		c.recFor(job.rep.id).Emit(now, obs.KindReplicate, job.rep.id, -1, job.session,
			int64(job.rep.id), int64(tokens), bytes, 0, "repin")
		c.clock.At(done, func(t simclock.Time) {
			c.chaos.replicationsInFlight--
			c.startRepins(t)
		})
	}
}

// replicateTick is one pass of the redundancy loop: every in-service
// replica's pinned session prefixes copy to the next Redundancy-1
// in-service peers' host-mirror tiers over the fabric's replicate class,
// bounded by the shared concurrency budget. Peers already holding a mirror
// at least as large are skipped, as are pairs currently flapped down.
func (c *Cluster) replicateTick(now simclock.Time) {
	spec := c.chaos.spec
	conc := spec.ReplicateConcurrencyOrDefault()
	for _, src := range c.replicas {
		if src.eng.Crashed() {
			continue
		}
		if c.cfg.Autoscale != nil && src.state != autoscale.Active {
			continue
		}
		for _, info := range src.eng.HottestPrefixes(0) {
			for _, dst := range c.backupsFor(src, spec.Redundancy-1) {
				if c.chaos.replicationsInFlight >= conc {
					return
				}
				key := copyKey{target: dst.id, session: info.Session}
				if c.chaos.copying[key] || !dst.eng.HostCacheEnabled() {
					continue
				}
				if dst.eng.HostMirrorSize(info.Session) >= info.Tokens {
					continue
				}
				if !c.linkUp(src.id, dst.id, now) {
					continue
				}
				tokens, bytes := src.eng.PrefixFootprint(info.Session)
				if tokens == 0 {
					continue
				}
				_, done := c.fab.BookBetween(fabric.ClassReplicate, src.id, dst.id, now, bytes)
				c.chaos.copying[key] = true
				c.chaos.replicationsInFlight++
				c.out.Replications++
				c.out.ReplicatedBytes += bytes
				c.recFor(src.id).Emit(now, obs.KindReplicate, src.id, -1, info.Session,
					int64(dst.id), int64(tokens), bytes, 0, "copy")
				dst := dst
				session := info.Session
				c.clock.At(done, func(t simclock.Time) {
					c.chaos.replicationsInFlight--
					delete(c.chaos.copying, copyKey{target: dst.id, session: session})
					if !dst.eng.Crashed() {
						dst.eng.AdoptHostMirror(session, tokens, t)
					}
				})
			}
		}
	}
}

// backupsFor lists the next n in-service replicas after src in id order
// (wrapping) — the deterministic backup assignment of the redundancy loop.
func (c *Cluster) backupsFor(src *replica, n int) []*replica {
	var out []*replica
	for off := 1; off < len(c.replicas) && len(out) < n; off++ {
		peer := c.replicas[(src.id+off)%len(c.replicas)]
		if peer.eng.Crashed() {
			continue
		}
		if c.cfg.Autoscale != nil && !peer.state.InService() {
			continue
		}
		out = append(out, peer)
	}
	return out
}
