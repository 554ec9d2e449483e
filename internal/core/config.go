// Package core implements the TokenFlow buffer-aware request scheduler,
// the paper's primary contribution (§4): a two-step algorithm that first
// determines the working set of requests to multiplex (Eq. 4-5 with the
// swap-feasibility admission criterion) and then balances client token
// buffers inside the working set by preempting fat-buffer streams in favor
// of starved ones (the utility function of §3.3/§4.2.2, maximized with a
// greedy selection plus local search). It coordinates with the
// hierarchical KV cache manager of internal/kvcache: preemption decisions
// account for live I/O load, and resumes choose between loading the host
// copy and recomputing (§4.2.3).
package core

import (
	"fmt"
	"time"
)

// Config holds the TokenFlow scheduler's tunables. Zero values select the
// paper's defaults via Normalize.
type Config struct {
	// RescheduleInterval is Δt, the period of full buffer-balancing
	// passes (§7.5 studies 0.5-1.5s; default 1s).
	RescheduleInterval time.Duration

	// BufferConservativeness is μ, the safety factor in the admission
	// criterion b_rem ≥ μ·r_i·(τ_evict+τ_load+τ_schedule) (§4.2.1) and in
	// preemption-victim protection. Higher values behave more like
	// SGLang (§7.5 studies 1.0 and 20.0; default 2.0).
	BufferConservativeness float64

	// Gamma weighs the starvation-avoidance term in the utility function
	// (the γ of Eq. 3; default 4).
	Gamma float64

	// BufferScaleSeconds normalizes buffered playback seconds inside the
	// exponential φ(b)=e^(−b/scale) so the penalty is meaningful across
	// consumption rates (default 2s).
	BufferScaleSeconds float64

	// AdjustRate is λ in the dynamic working-set shrink
	// W_sched = W_static − λ·(W_static − N_running) (Eq. 5; default 0.5).
	AdjustRate float64

	// ExpectedContextTokens is β, the per-request memory footprint
	// estimate in W_static = ⌊M/β⌋ (Eq. 4). Zero derives it from the live
	// request population.
	ExpectedContextTokens int

	// Overcommit scales the working-set bound beyond device memory
	// (§4.2.2's overcommitment mechanism: the working set may exceed GPU
	// memory, with the excess transparently offloaded to host memory).
	// Eq. 4's M is therefore the host-extended capacity: W_static =
	// ⌊Overcommit·M_gpu/β⌋. Default 2.5.
	Overcommit float64

	// TargetBufferSeconds is the buffered-playback level beyond which a
	// running stream becomes a preemption candidate (the "buffer ≥
	// threshold" of the Figure 6 example; default 3s).
	TargetBufferSeconds float64

	// CriticalBufferSeconds is T_critical: a running stream dropping below
	// this much buffered playback triggers rescheduling even between
	// intervals (§4.2.1; default 1s).
	CriticalBufferSeconds float64

	// TTFTTarget scales the urgency of unserved requests (the 1.3s
	// engagement threshold of §2.2).
	TTFTTarget time.Duration

	// LocalSearch enables the adjacent-swap refinement after the greedy
	// selection (§4.2.2); disable to ablate.
	LocalSearch bool

	// FallbackFCFS enables graceful degradation to FCFS with memory-aware
	// admission when Σ r_i exceeds the throughput capacity Γ (§4.3);
	// disable to ablate.
	FallbackFCFS bool

	// MaxBatchTokens caps the total context the balancer packs onto the
	// device, as a fraction of pool capacity (default 0.95, leaving room
	// for per-iteration growth).
	PackFraction float64
}

// DefaultConfig returns the paper's default TokenFlow settings.
func DefaultConfig() Config {
	return Config{
		RescheduleInterval:     time.Second,
		BufferConservativeness: 2.0,
		Gamma:                  4.0,
		BufferScaleSeconds:     2.0,
		AdjustRate:             0.5,
		TargetBufferSeconds:    3.0,
		CriticalBufferSeconds:  1.0,
		TTFTTarget:             1300 * time.Millisecond,
		Overcommit:             2.5,
		LocalSearch:            true,
		FallbackFCFS:           true,
		PackFraction:           0.95,
	}
}

// Normalize fills zero fields with defaults and validates ranges.
func (c Config) Normalize() (Config, error) {
	d := DefaultConfig()
	if c.RescheduleInterval == 0 {
		c.RescheduleInterval = d.RescheduleInterval
	}
	if c.BufferConservativeness == 0 {
		c.BufferConservativeness = d.BufferConservativeness
	}
	if c.Gamma == 0 {
		c.Gamma = d.Gamma
	}
	if c.BufferScaleSeconds == 0 {
		c.BufferScaleSeconds = d.BufferScaleSeconds
	}
	if c.AdjustRate == 0 {
		c.AdjustRate = d.AdjustRate
	}
	if c.TargetBufferSeconds == 0 {
		c.TargetBufferSeconds = d.TargetBufferSeconds
	}
	if c.CriticalBufferSeconds == 0 {
		c.CriticalBufferSeconds = d.CriticalBufferSeconds
	}
	if c.TTFTTarget == 0 {
		c.TTFTTarget = d.TTFTTarget
	}
	if c.PackFraction == 0 {
		c.PackFraction = d.PackFraction
	}
	if c.Overcommit == 0 {
		c.Overcommit = d.Overcommit
	}
	switch {
	case c.RescheduleInterval < 0:
		return c, fmt.Errorf("core: negative reschedule interval %v", c.RescheduleInterval)
	case c.BufferConservativeness < 1:
		return c, fmt.Errorf("core: buffer conservativeness %v must be >= 1", c.BufferConservativeness)
	case c.Gamma < 0 || c.BufferScaleSeconds <= 0:
		return c, fmt.Errorf("core: invalid utility parameters (gamma=%v scale=%v)", c.Gamma, c.BufferScaleSeconds)
	case c.AdjustRate < 0 || c.AdjustRate > 1:
		return c, fmt.Errorf("core: adjust rate %v must be in [0,1]", c.AdjustRate)
	case c.PackFraction <= 0 || c.PackFraction > 1:
		return c, fmt.Errorf("core: pack fraction %v must be in (0,1]", c.PackFraction)
	case c.ExpectedContextTokens < 0:
		return c, fmt.Errorf("core: negative expected context %d", c.ExpectedContextTokens)
	case c.Overcommit < 1:
		return c, fmt.Errorf("core: overcommit %v must be >= 1", c.Overcommit)
	case c.TTFTTarget < 0:
		// A negative target flips the waiting-time urgency: the longest-
		// waiting request would rank last.
		return c, fmt.Errorf("core: negative TTFT target %v", c.TTFTTarget)
	case c.TargetBufferSeconds < 0 || c.CriticalBufferSeconds < 0:
		// A negative target buffer would make fat buffers more valuable,
		// and a negative critical level would never flag a starving stream.
		return c, fmt.Errorf("core: negative buffer thresholds (target=%v critical=%v)",
			c.TargetBufferSeconds, c.CriticalBufferSeconds)
	}
	return c, nil
}
