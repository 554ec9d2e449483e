package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Scheduler is the TokenFlow buffer-aware scheduler.
type Scheduler struct {
	cfg Config

	lastFull simclock.Time
	ranFull  bool

	// Stats for the evaluation's overhead and behaviour analysis.
	FullReschedules int64
	LightPasses     int64
	FallbackPasses  int64
	SwapsApplied    int64

	// Scratch reused by every full pass, so a pass allocates only the
	// decision it returns once the buffers have grown.
	cands    []candidate
	admitted []*request.Request
	victims  []*request.Request
	pk       packer
}

// New constructs the scheduler, normalizing the config.
func New(cfg Config) (*Scheduler, error) {
	n, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Scheduler{cfg: n}, nil
}

// MustNew is New for compile-time-constant configs in tests and examples.
func MustNew(cfg Config) *Scheduler {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the normalized configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// ForceFullPass clears the interval gate so the next Decide runs a full
// working-set + buffer-balancing pass; used by overhead benchmarks.
func (s *Scheduler) ForceFullPass() { s.ranFull = false }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "tokenflow" }

// PrefillChunkTokens implements sched.Scheduler. TokenFlow partitions
// prefill batches dynamically in the engine (§4.2.3); the scheduler itself
// runs unchunked prefill-priority iterations like its SGLang substrate.
func (s *Scheduler) PrefillChunkTokens() int { return 0 }

// NextDecisionTime implements sched.Waker: while the interval gate holds,
// a stressed system gets only light passes, so absent other events the
// next decision change is the full buffer-balancing pass at the end of the
// current RescheduleInterval.
func (s *Scheduler) NextDecisionTime(now simclock.Time) simclock.Time {
	if !s.ranFull {
		return simclock.Forever
	}
	return s.lastFull.Add(s.cfg.RescheduleInterval)
}

// Decide implements sched.Scheduler with the two-phase algorithm of §4.2:
// a full working-set determination and buffer-balancing pass every
// RescheduleInterval while the system is stressed, and a cheap prefill-
// first pass otherwise.
func (s *Scheduler) Decide(v *sched.View) sched.Decision {
	stressed := len(v.Waiting) > 0 || len(v.Preempted) > 0 || s.anyCritical(v)
	if !stressed {
		s.LightPasses++
		return s.lightPass(v)
	}
	if s.ranFull && v.Now.Sub(s.lastFull) < s.cfg.RescheduleInterval {
		s.LightPasses++
		return s.lightPass(v)
	}
	s.ranFull = true
	s.lastFull = v.Now

	if s.cfg.FallbackFCFS && s.overloaded(v) {
		s.FallbackPasses++
		return s.fcfsFallback(v)
	}
	s.FullReschedules++
	return s.fullPass(v)
}

// anyCritical reports whether any running stream's buffer dropped below
// T_critical (§4.2.1's stress condition).
func (s *Scheduler) anyCritical(v *sched.View) bool {
	for _, r := range v.Running {
		if r.Generated > 0 && !r.GenerationDone() && r.BufferSeconds() < s.cfg.CriticalBufferSeconds {
			return true
		}
	}
	return false
}

// swapCycleSeconds estimates τ_evict + τ_load + τ_schedule for a candidate
// preemption-resumption cycle of request r, from the memory manager's live
// profiled transfer estimates (§4.2.1).
func (s *Scheduler) swapCycleSeconds(v *sched.View, r *request.Request) float64 {
	cycle := s.cfg.RescheduleInterval.Seconds() // τ_schedule: next full pass
	if v.Mem != nil {
		cycle += v.Mem.EstimateEvict(r, v.Now).Seconds()
		cycle += v.Mem.EstimateLoad(r, v.Now).Seconds()
	}
	return cycle
}

// canSurviveSwap is the admission/victim criterion
// b_rem ≥ μ·r_i·(τ_evict+τ_load+τ_schedule): the stream's buffer must
// cover a full preemption-resumption cycle with safety factor μ.
func (s *Scheduler) canSurviveSwap(v *sched.View, r *request.Request) bool {
	if r.Rate <= 0 {
		// Instant consumers hold no buffer; preempting them only delays
		// completion, so they are always swappable.
		return true
	}
	need := s.cfg.BufferConservativeness * r.Rate * s.swapCycleSeconds(v, r)
	return float64(r.BufferLen()) >= need
}

// lightPass is the non-stressed path: prefill-first FCFS admission into
// free memory, plus urgent resumes of preempted streams about to starve.
func (s *Scheduler) lightPass(v *sched.View) sched.Decision {
	var d sched.Decision
	avail := v.FreeTokens - v.BacklogTokens()
	slots := v.SlotsFree()
	for _, r := range v.Preempted {
		if !s.resumeUrgent(v, r) {
			continue
		}
		need := r.PromptLen + r.Generated
		if need > avail || slots <= 0 {
			continue
		}
		d.Admit = append(d.Admit, sched.Admission{Req: r, Mode: s.resumeMode(v, r)})
		avail -= need
		slots--
	}
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break
		}
		d.Admit = append(d.Admit, sched.Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	return d
}

// resumeUrgent reports whether a preempted stream must resume before the
// next full pass to avoid a stall.
func (s *Scheduler) resumeUrgent(v *sched.View, r *request.Request) bool {
	if r.Rate <= 0 {
		return false
	}
	horizon := s.cfg.RescheduleInterval.Seconds()
	if v.Mem != nil {
		horizon += v.Mem.EstimateLoad(r, v.Now).Seconds()
	}
	return r.BufferSeconds() < horizon
}

// resumeMode picks load-from-host versus recompute by comparing the
// profiled I/O latency with the estimated recomputation time (§4.2.3's
// min(t_IO, t_recompute) rule).
func (s *Scheduler) resumeMode(v *sched.View, r *request.Request) sched.ResumeMode {
	if v.Mem == nil || v.Mem.HostBytes(r) == 0 {
		return sched.ResumeRecompute
	}
	tIO := v.Mem.EstimateLoad(r, v.Now)
	tRecompute := v.RecomputeEstimate(r)
	if tIO > tRecompute {
		return sched.ResumeRecompute
	}
	return sched.ResumeLoad
}

// capacity estimates the throughput bound Γ of §4.3: aggregate decode
// tokens/s at the largest batch device memory sustains for the live
// population's average context.
func (s *Scheduler) capacity(v *sched.View) float64 {
	var ctxSum int64
	n := 0
	add := func(rs []*request.Request) {
		for _, r := range rs {
			ctxSum += int64(r.FullContextLen())
			n++
		}
	}
	add(v.Running)
	add(v.Loading)
	add(v.PrefillBacklog)
	add(v.Preempted)
	add(v.Waiting)
	avgCtx := int64(1024)
	if n > 0 {
		avgCtx = ctxSum / int64(n)
	}
	if avgCtx <= 0 {
		avgCtx = 1
	}
	memBatch := int(int64(v.TotalTokens) / avgCtx)
	if memBatch < 1 {
		memBatch = 1
	}
	if v.MaxBatch > 0 && memBatch > v.MaxBatch {
		memBatch = v.MaxBatch
	}
	return v.Cost.PeakDecodeTokensPerSec(memBatch, avgCtx)
}

// demandAll sums required output rates over every live request — the
// Σ r_i of Eq. 6 taken over the population the scheduler would have to
// pace. Instant consumers (rate <= 0) contribute no pacing demand.
func demandAll(v *sched.View) float64 {
	var demand float64
	add := func(rs []*request.Request) {
		for _, r := range rs {
			if r.Rate > 0 && !r.GenerationDone() {
				demand += r.Rate
			}
		}
	}
	add(v.Running)
	add(v.Loading)
	add(v.PrefillBacklog)
	add(v.Preempted)
	add(v.Waiting)
	return demand
}

// overloaded implements the §4.3 schedulability check: when the combined
// required output rates exceed the throughput bound Γ, no schedule can
// pace every stream, and the scheduler gracefully degrades to FCFS with
// memory-aware admission (requests then finish at full device speed,
// which drains the overload fastest).
func (s *Scheduler) overloaded(v *sched.View) bool {
	demand := demandAll(v)
	if demand == 0 {
		return false
	}
	// 10% slack avoids flapping between balanced and fallback modes on
	// estimate noise.
	return demand > 1.1*s.capacity(v)
}

// fcfsFallback schedules strictly by arrival within device memory (§4.3):
// no buffer balancing, no new working-set growth beyond what fits.
func (s *Scheduler) fcfsFallback(v *sched.View) sched.Decision {
	var d sched.Decision
	avail := v.FreeTokens - v.BacklogTokens()
	slots := v.SlotsFree()
	// Resume preempted in arrival order first, then fresh arrivals.
	pre := append([]*request.Request(nil), v.Preempted...)
	sort.SliceStable(pre, func(i, j int) bool { return pre[i].Arrival < pre[j].Arrival })
	for _, r := range pre {
		need := r.PromptLen + r.Generated
		if need > avail || slots <= 0 {
			continue
		}
		d.Admit = append(d.Admit, sched.Admission{Req: r, Mode: s.resumeMode(v, r)})
		avail -= need
		slots--
	}
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break
		}
		d.Admit = append(d.Admit, sched.Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	return d
}

// candidate is one working-set member under buffer balancing.
type candidate struct {
	req *request.Request
	// utility is the selection priority U_i (see utility()).
	utility float64
	// tokens is the device context the request needs if resident during
	// the next interval (current context plus expected growth).
	tokens int
	// resident marks requests currently on the device.
	resident bool
	// committed marks requests the balancer cannot displace this pass
	// (mid-prefill, mid-load, or protected by the swap criterion).
	committed bool
}

// utility computes the per-request selection priority, the operational
// form of Eq. 3's U_i = v_i·t′ − γ·φ(b_rem). The paper defines φ(b)=e^(−b)
// and states that near-empty buffers must receive *higher* priority
// (§4.2.2 point 1), so the starvation term enters the priority positively;
// v_i·t′ is the expected value of the tokens generated next interval,
// which itself decays with buffer occupancy (tokens beyond the client's
// consumption horizon are worthless, §3.2). Unserved requests carry an
// additional urgency that grows with queueing delay relative to the TTFT
// target, so responsiveness pressure and starvation pressure compete on
// one scale.
func (s *Scheduler) utility(v *sched.View, r *request.Request) float64 {
	if r.Generated == 0 {
		wait := v.Now.Sub(r.Arrival).Seconds()
		return s.cfg.Gamma * (1 + wait/s.cfg.TTFTTarget.Seconds())
	}
	buf := r.BufferSeconds()
	starvation := s.cfg.Gamma * math.Exp(-buf/s.cfg.BufferScaleSeconds)
	// v_i·t′: tokens generated over the next interval are worth up to the
	// client's consumption during that interval; a fat buffer devalues
	// them to zero.
	interval := s.cfg.RescheduleInterval.Seconds()
	value := 0.0
	if r.Rate > 0 {
		value = math.Max(0, 1-buf/(2*s.cfg.TargetBufferSeconds)) * interval
	} else {
		value = 0.5 * interval // instant consumers always consume
	}
	return starvation + value
}

// expectedTokens estimates the device context a request occupies through
// the next interval: current context plus decode growth.
func (s *Scheduler) expectedTokens(v *sched.View, r *request.Request) int {
	ctx := r.PromptLen + r.Generated
	growth := 0
	if v.AvgIterTime > 0 {
		growth = int(s.cfg.RescheduleInterval.Seconds() / v.AvgIterTime.Seconds())
	}
	if growth > r.RemainingOutput() {
		growth = r.RemainingOutput()
	}
	return ctx + growth
}

// fullPass runs the two-step algorithm: working-set determination (§4.2.1)
// then buffer balancing with greedy selection and local search (§4.2.2).
func (s *Scheduler) fullPass(v *sched.View) sched.Decision {
	// --- Step 1: working-set determination -----------------------------
	// W_static = ⌊M/β⌋ (Eq. 4) with β from config or the live population.
	beta := s.cfg.ExpectedContextTokens
	members := len(v.Running) + len(v.Loading) + len(v.PrefillBacklog) + len(v.Preempted)
	if beta == 0 {
		var sum int64
		n := 0
		add := func(rs []*request.Request) {
			for _, r := range rs {
				sum += int64(r.FullContextLen())
				n++
			}
		}
		add(v.Running)
		add(v.Preempted)
		add(v.Waiting)
		add(v.PrefillBacklog)
		if n > 0 {
			beta = int(sum / int64(n))
		}
	}
	if beta <= 0 {
		beta = 1024
	}
	wStatic := int(s.cfg.Overcommit*float64(v.TotalTokens)) / beta
	if wStatic < 1 {
		wStatic = 1
	}
	// Eq. 5: shrink toward the live running count so the working set does
	// not balloon while the device is underused.
	wSched := wStatic
	if nRun := len(v.Running); nRun < wStatic {
		wSched = wStatic - int(s.cfg.AdjustRate*float64(wStatic-nRun))
		if wSched < nRun+1 {
			wSched = nRun + 1
		}
	}

	// Admit waiting requests into the working set while capacity remains.
	// Overcommitment is intentional: the admitted request may displace a
	// fat-buffer stream in step 2. Admission requires the swap-feasibility
	// criterion — enough running streams must be able to cover a swap —
	// unless the device has outright free memory.
	admitted := s.admitted[:0]
	free := v.FreeTokens - v.BacklogTokens()
	swappable := 0
	for _, r := range v.Running {
		if r.PrefillDone() && s.canSurviveSwap(v, r) {
			swappable += r.PromptLen + r.Generated
		}
	}
	for _, r := range v.Waiting {
		if members+len(admitted) >= wSched {
			break
		}
		if r.PromptLen <= free {
			admitted = append(admitted, r)
			free -= r.PromptLen
			continue
		}
		if r.PromptLen <= free+swappable {
			admitted = append(admitted, r)
			swappable -= r.PromptLen - free
			free = 0
			continue
		}
		break
	}

	// --- Step 2: buffer balancing inside the working set ----------------
	cands := s.cands[:0]
	for _, r := range v.Running {
		c := candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r), resident: true}
		// Streams that cannot survive a swap, or are still prefilling,
		// must stay.
		if !r.PrefillDone() || r.Generated == 0 || !s.canSurviveSwap(v, r) {
			c.committed = true
		}
		// Streams below the target buffer are not preemption candidates
		// either: preempting them trades one stall for another.
		if r.Rate > 0 && r.BufferSeconds() < s.cfg.TargetBufferSeconds {
			c.committed = true
		}
		cands = append(cands, c)
	}
	for _, r := range v.Preempted {
		cands = append(cands, candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r)})
	}
	for _, r := range admitted {
		cands = append(cands, candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r)})
	}

	// Loading and backlog requests are committed consumers of memory and
	// batch slots.
	budget := int(s.cfg.PackFraction * float64(v.TotalTokens))
	for _, r := range v.Loading {
		budget -= s.expectedTokens(v, r)
	}
	for _, r := range v.PrefillBacklog {
		budget -= s.expectedTokens(v, r)
	}
	slots := 0 // 0 = unbounded
	if v.MaxBatch > 0 {
		slots = v.MaxBatch - len(v.Loading) - len(v.PrefillBacklog)
		if slots < 1 {
			slots = 1
		}
	}

	selected := s.selectCandidates(cands, budget, slots)

	var d sched.Decision
	victims := s.victims[:0]
	for i := range cands {
		c := &cands[i]
		if c.resident && !selected[i] && !c.committed {
			victims = append(victims, c.req)
		}
	}
	d.Preempt = append([]*request.Request(nil), victims...)
	// Admissions in utility order so the engine applies the most urgent
	// first when memory is tight. Selected candidates are compacted to
	// the front of cands, which the pass no longer needs.
	ordered := cands[:0]
	for i, c := range cands {
		if !c.resident && selected[i] {
			ordered = append(ordered, c)
		}
	}
	slices.SortStableFunc(ordered, func(a, b candidate) int { return moreUseful(a.utility, b.utility) })
	if len(ordered) > 0 {
		d.Admit = make([]sched.Admission, 0, len(ordered))
	}
	for _, c := range ordered {
		adm := sched.Admission{Req: c.req}
		if c.req.State == request.StatePreempted {
			adm.Mode = s.resumeMode(v, c.req)
		}
		d.Admit = append(d.Admit, adm)
	}

	// Keep the grown buffers but drop their request pointers.
	clear(cands)
	clear(admitted)
	clear(victims)
	s.cands, s.admitted, s.victims = cands[:0], admitted[:0], victims[:0]
	return d
}

// moreUseful orders utilities descending: negative when a ranks before b.
// It is negative exactly when a > b, so a stable sort with it orders
// exactly as one with the less function a > b.
func moreUseful(a, b float64) int {
	switch {
	case a > b:
		return -1
	case b > a:
		return 1
	}
	return 0
}

// packer holds the §4.2.2 local search's buffers, indexed by position p
// in the priority order. Entry p of rem, left and util is the greedy
// packing's state before order[p] is considered (token budget remaining,
// batch slots left, utility of the discretionary selections so far);
// entry n is the final state. sel[p] records whether order[p] is
// selected. The t-prefixed buffers hold the same for one trial swap.
type packer struct {
	order       []int
	sel, tsel   []bool
	rem, left   []int
	trem, tleft []int
	util, tutil []float64
	byCand      []bool
}

// resize returns b with length n, reusing its storage when it is large
// enough. Callers overwrite every entry they read.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// step applies the greedy packing to one candidate under the token budget
// and the batch-slot cap (Σx_i ≤ B of §3.3; capped is false when slots
// are unbounded): committed candidates always take their tokens and slot,
// others when a slot is left and their tokens fit. It returns whether c
// is selected and the state after it; only discretionary selections add
// to the utility.
func step(c *candidate, capped bool, rem, left int, util float64) (bool, int, int, float64) {
	switch {
	case c.committed:
		return true, rem - c.tokens, left - 1, util
	case capped && left <= 0:
		return false, rem, left, util
	case c.tokens <= rem:
		return true, rem - c.tokens, left - 1, util + c.utility
	}
	return false, rem, left, util
}

// selectCandidates greedily picks candidates by descending utility under
// the token budget (committed candidates first: they consume budget
// regardless), then applies the §4.2.2 local search: adjacent pairs in
// the priority queue are tentatively swapped and the greedy packing is
// re-evaluated; a swap sticks when it raises the total selected utility
// within the memory constraint. (A single large high-utility request can
// otherwise block several slightly-lower-utility small ones.) The result
// is indexed like cands and is valid until the next call.
//
// The packer keeps the state before every position of the accepted order
// (see packer), so a trial swap at k resumes from the saved state at k
// instead of re-packing from the start. Past k+1 the trial order equals
// the saved one, so once the trial's remaining budget and slots equal the
// saved ones at some position j ≥ k+2 every later selection is the saved
// one too. The trial then only replays the utility sum, and is rejected
// outright when its running utility at j is also equal.
//
// Float order: the total is always the left-to-right sum of selected
// utilities in the trial order, exactly as a full re-pack computes it.
// Exchanging two selected candidates can change that sum by an ulp, and
// such a swap is accepted when the sum rises, so no shortcut may
// re-associate the sum (e.g. total − saved prefix + trial prefix).
func (s *Scheduler) selectCandidates(cands []candidate, budget, slots int) []bool {
	n := len(cands)
	p := &s.pk
	p.order = resize(p.order, n)
	p.sel, p.tsel, p.byCand = resize(p.sel, n), resize(p.tsel, n), resize(p.byCand, n)
	p.rem, p.left, p.util = resize(p.rem, n+1), resize(p.left, n+1), resize(p.util, n+1)
	p.trem, p.tleft, p.tutil = resize(p.trem, n+1), resize(p.tleft, n+1), resize(p.tutil, n+1)

	order := p.order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := &cands[a], &cands[b]
		if ca.committed != cb.committed {
			if ca.committed {
				return -1
			}
			return 1
		}
		return moreUseful(ca.utility, cb.utility)
	})

	capped := slots > 0
	p.rem[0], p.left[0], p.util[0] = budget, slots, 0
	for q, ci := range order {
		p.sel[q], p.rem[q+1], p.left[q+1], p.util[q+1] = step(&cands[ci], capped, p.rem[q], p.left[q], p.util[q])
	}

	for k := 0; s.cfg.LocalSearch && k+1 < n; k++ {
		if cands[order[k]].committed || cands[order[k+1]].committed {
			continue // committed entries are fixed consumers of budget
		}
		// Pack the trial order (order with k and k+1 exchanged) from the
		// saved state at k until it rejoins the saved state. Slots left
		// only matter under a cap.
		rem, left, util := p.rem[k], p.left[k], p.util[k]
		j := k
		for ; j < n; j++ {
			if j >= k+2 && rem == p.rem[j] && (!capped || left == p.left[j]) {
				break
			}
			ci := order[j]
			switch j {
			case k:
				ci = order[k+1]
			case k + 1:
				ci = order[k]
			}
			p.tsel[j], rem, left, util = step(&cands[ci], capped, rem, left, util)
			p.trem[j+1], p.tleft[j+1], p.tutil[j+1] = rem, left, util
		}
		if j < n && util == p.util[j] {
			continue // same state from j on: same total
		}
		for q := j; q < n; q++ {
			if p.sel[q] {
				util += cands[order[q]].utility
			}
			p.tutil[q+1] = util
		}
		if !(util > p.util[n]) {
			continue
		}
		// Accept: the trial state is computed up to j, and beyond j only
		// the running utility differs from the saved state.
		order[k], order[k+1] = order[k+1], order[k]
		copy(p.sel[k:j], p.tsel[k:j])
		copy(p.rem[k+1:j+1], p.trem[k+1:j+1])
		copy(p.left[k+1:j+1], p.tleft[k+1:j+1])
		copy(p.util[k+1:], p.tutil[k+1:n+1])
		s.SwapsApplied++
	}

	for q, ci := range order {
		p.byCand[ci] = p.sel[q]
	}
	return p.byCand
}
