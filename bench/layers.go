package main

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// buildEngine returns the cluster's engine builder for the deployment,
// configured the way tokenflow.RunCluster configures a TokenFlow replica.
// With a non-nil tracer every replica's scheduler is wrapped in a timer.
func buildEngine(d deployment, tr *tracer) cluster.BuildEngine {
	return func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		g, err := gpu.ByName(d.GPU)
		if err != nil {
			return nil, err
		}
		m, err := model.ByName(d.Model)
		if err != nil {
			return nil, err
		}
		ccfg := core.DefaultConfig()
		ccfg.LocalSearch = true
		ccfg.FallbackFCFS = true
		s, err := core.New(ccfg)
		if err != nil {
			return nil, err
		}
		kv := engine.TokenFlowKVPolicy()
		kv.HostCache = d.HostPrefixCache
		var sc sched.Scheduler = s
		if tr != nil {
			sc = tr.wrapScheduler(s)
		}
		return engine.New(engine.Config{
			GPU:         g,
			Model:       m,
			MemFraction: d.MemFraction,
			QoS:         metrics.DefaultQoSParams(),
			Scheduler:   sc,
			KV:          kv,
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

// tracer times the calls the cluster makes into the scheduler, router and
// autoscaler, from wrappers installed at the boundaries cluster.New
// accepts. Each replica's scheduler is called only from the goroutine of
// the shard that owns the replica, and the policies only from the
// coordinator, so no counter is shared between goroutines.
type tracer struct {
	scheds []*timedScheduler
	pick   *timedPolicy
	scale  *timedAutoscale
}

// instrument wraps the config's policies in place.
func (t *tracer) instrument(cfg *cluster.Config) {
	cfg.Policy, t.pick = wrapPolicy(cfg.Policy)
	if a := cfg.Autoscale; a != nil {
		t.scale = &timedAutoscale{Policy: a.Policy}
		a.Policy = t.scale
	}
}

func (t *tracer) wrapScheduler(s *core.Scheduler) *timedScheduler {
	ts := &timedScheduler{Scheduler: s, core: s}
	t.scheds = append(t.scheds, ts)
	return ts
}

// timedScheduler forwards sched.Scheduler (Name and PrefillChunkTokens by
// embedding) and sched.Waker, timing Decide.
type timedScheduler struct {
	sched.Scheduler
	core  *core.Scheduler
	calls int64
	busy  time.Duration
}

func (s *timedScheduler) Decide(v *sched.View) sched.Decision {
	start := time.Now()
	d := s.Scheduler.Decide(v)
	s.busy += time.Since(start)
	s.calls++
	return d
}

// NextDecisionTime forwards sched.Waker; Forever is what the engine
// assumes of a scheduler without it.
func (s *timedScheduler) NextDecisionTime(now simclock.Time) simclock.Time {
	if w, ok := s.Scheduler.(sched.Waker); ok {
		return w.NextDecisionTime(now)
	}
	return simclock.Forever
}

// timedPolicy forwards router.Policy (Name by embedding) and router.Scorer,
// timing Pick.
type timedPolicy struct {
	router.Policy
	calls int64
	busy  time.Duration
}

func (p *timedPolicy) Pick(req router.Request, replicas []router.Replica) int {
	start := time.Now()
	i := p.Policy.Pick(req, replicas)
	p.busy += time.Since(start)
	p.calls++
	return i
}

// Score forwards router.Scorer; 0 is the score the cluster records for a
// policy without it.
func (p *timedPolicy) Score(req router.Request, r router.Replica) float64 {
	if sc, ok := p.Policy.(router.Scorer); ok {
		return sc.Score(req, r)
	}
	return 0
}

// timedIndexedPolicy adds router.IndexBinder. Its presence alone makes the
// cluster build a prefix index, so only policies that bind one get it.
type timedIndexedPolicy struct{ *timedPolicy }

func (p timedIndexedPolicy) BindIndex(x *prefixindex.Index) {
	p.Policy.(router.IndexBinder).BindIndex(x)
}

func wrapPolicy(p router.Policy) (router.Policy, *timedPolicy) {
	t := &timedPolicy{Policy: p}
	if _, ok := p.(router.IndexBinder); ok {
		return timedIndexedPolicy{t}, t
	}
	return t, t
}

// timedAutoscale forwards autoscale.Policy (Name by embedding),
// autoscale.TTFTObserver and autoscale.Forecaster, timing Decide.
type timedAutoscale struct {
	autoscale.Policy
	calls int64
	busy  time.Duration
}

func (p *timedAutoscale) Decide(s autoscale.Signals) autoscale.Decision {
	start := time.Now()
	d := p.Policy.Decide(s)
	p.busy += time.Since(start)
	p.calls++
	return d
}

func (p *timedAutoscale) ObservesTTFT() bool { return autoscale.ObservesTTFT(p.Policy) }

// ForecastError forwards autoscale.Forecaster; (0, 0) is what the cluster
// reports for a policy without it.
func (p *timedAutoscale) ForecastError() (float64, int) {
	if f, ok := p.Policy.(autoscale.Forecaster); ok {
		return f.ForecastError()
	}
	return 0, 0
}
