package cluster

// The scale-to-zero gateway: a bounded FIFO admission stage ahead of
// routing. When Autoscale.ScaleToZero lets the pool idle down to zero
// active replicas, arrivals that find no capacity do not hit the router —
// they are buffered here (or shed when the buffer is full), each one
// doubling as a cold-start trigger. The moment the first replica reaches
// Active (a fresh warm-up or a cancelled drain), the whole buffer drains
// into it in arrival order; the buffered wait plus the residual warm-up is
// inside each request's TTFT, because the request object was stamped with
// its true arrival time when it entered the gateway.

import (
	"repro/internal/autoscale"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// gatewayEnabled reports whether the admission gateway fronts this cluster.
func (c *Cluster) gatewayEnabled() bool {
	return c.cfg.Autoscale != nil && c.cfg.Autoscale.ScaleToZero
}

// gatewayCap resolves the configured buffer bound: negative GatewayDepth
// means a zero-capacity gateway (every zero-replica arrival sheds).
func (c *Cluster) gatewayCap() int {
	if d := c.cfg.Autoscale.GatewayDepth; d > 0 {
		return d
	}
	return 0
}

// activeCount reports the replicas currently in the Active state.
func (c *Cluster) activeCount() int {
	n := 0
	for _, rep := range c.replicas {
		if rep.state == autoscale.Active {
			n++
		}
	}
	return n
}

// scaleToZeroPending reports whether a scale-to-zero pool still has
// replicas in service — the control loop keeps ticking until the policy
// has turned them all off, so the idle-drain tail is part of the run.
func (c *Cluster) scaleToZeroPending() bool {
	if !c.gatewayEnabled() {
		return false
	}
	for _, rep := range c.replicas {
		if rep.state != autoscale.Off {
			return true
		}
	}
	return false
}

// ensureColdStart wakes a zero-active pool: if no replica is active or
// already warming, one scale-up starts immediately — reactivating a
// draining replica when possible (it is still warm), otherwise paying a
// cold warm-up. Arrivals call it at their own instant rather than waiting
// for the next control tick, so the cold-start clock starts with the
// demand, not up to one tick later.
func (c *Cluster) ensureColdStart(now simclock.Time) {
	for _, rep := range c.replicas {
		if rep.state == autoscale.Active || rep.state == autoscale.Warming {
			return
		}
	}
	c.scaleUp(now)
}

// gatewayAdmit buffers one arrival that found zero active replicas, or
// sheds it when the gateway is full. Shed requests never enter the
// simulation: they appear in no replica's results, only in GatewayShed.
func (c *Cluster) gatewayAdmit(id int, it trace.Item, now simclock.Time) {
	if len(c.gateway) >= c.gatewayCap() {
		c.out.GatewayShed++
		c.rec.Emit(now, obs.KindGatewayShed, -1, id, it.Session,
			int64(it.PromptLen), int64(it.OutputLen), 0, 0, "")
		return
	}
	r := request.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
	r.Session, r.Turn = it.Session, it.Turn
	c.gateway = append(c.gateway, r)
	c.out.GatewayBuffered++
	c.rec.Emit(now, obs.KindGatewayBuffer, -1, id, it.Session,
		int64(len(c.gateway)), 0, 0, 0, "")
	for _, rep := range c.replicas {
		if rep.state == autoscale.Warming {
			// Demand the cold start has answered but cannot serve yet.
			c.out.WarmupStalls++
			break
		}
	}
}

// drainGateway hands every buffered request to the replica that just
// became active, in FIFO arrival order. Requests keep their gateway-entry
// arrival stamps, so the buffered wait lands inside TTFT. No routing or
// migration applies: off replicas hold no pins (the drain guarantee), so
// the first warmed replica is the only capacity there is.
func (c *Cluster) drainGateway(rep *replica, now simclock.Time) {
	if len(c.gateway) == 0 {
		return
	}
	q := c.gateway
	c.gateway = nil
	for _, r := range q {
		rep.routed++
		rep.eng.InjectCause(r, now, obs.QueueCauseGateway)
	}
}
