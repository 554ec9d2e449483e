package core

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

func TestConfigNormalizeDefaults(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultConfig()
	if c.RescheduleInterval != d.RescheduleInterval || c.Gamma != d.Gamma ||
		c.BufferConservativeness != d.BufferConservativeness {
		t.Errorf("normalize did not apply defaults: %+v", c)
	}
	// Note: explicit false for LocalSearch/FallbackFCFS stays false; they
	// default true only via DefaultConfig.
}

func TestConfigNormalizeRejectsBadValues(t *testing.T) {
	bad := []Config{
		{RescheduleInterval: -time.Second},
		{BufferConservativeness: 0.5},
		{Gamma: -1},
		{BufferScaleSeconds: -1},
		{AdjustRate: 1.5},
		{PackFraction: 1.5},
		{ExpectedContextTokens: -1},
		{TTFTTarget: -time.Second},
		{TargetBufferSeconds: -3},
		{CriticalBufferSeconds: -1},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Gamma: -1}); err == nil {
		t.Error("bad config should error")
	}
	s := MustNew(DefaultConfig())
	if s.Name() != "tokenflow" {
		t.Errorf("name = %q", s.Name())
	}
	if s.PrefillChunkTokens() != 0 {
		t.Error("tokenflow runs unchunked prefill")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config should panic")
		}
	}()
	MustNew(Config{Gamma: -1})
}

// view builds a minimal scheduler view with an H200/Llama3-8B cost model.
func view(t *testing.T, now simclock.Time) *sched.View {
	t.Helper()
	cost, err := gpu.NewCostModel(gpu.H200, model.Llama3_8B)
	if err != nil {
		t.Fatal(err)
	}
	return &sched.View{
		Now:         now,
		FreeTokens:  100_000,
		TotalTokens: 200_000,
		PageTokens:  16,
		Cost:        cost,
		AvgIterTime: 20 * time.Millisecond,
	}
}

// streamReq builds a running request with a given buffered playback depth.
func streamReq(id int, rate float64, bufferTokens int, outputLen int) *request.Request {
	clock := simclock.New()
	r := request.New(id, 0, 256, outputLen, rate)
	r.State = request.StateRunning
	r.PrefilledTokens = 256
	// Deliver bufferTokens+1 tokens; the first is consumed immediately at
	// TTFT, leaving bufferTokens in the buffer.
	r.DeliverTokens(clock, 0, bufferTokens+1)
	r.CancelConsumption(clock)
	return r
}

func TestUtilityPrefersStarvedStreams(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(10))
	starved := streamReq(1, 20, 5, 1000) // 0.25s of buffer
	fat := streamReq(2, 20, 200, 1000)   // 10s of buffer
	if s.utility(v, starved) <= s.utility(v, fat) {
		t.Errorf("starved stream should outrank fat stream: %v vs %v",
			s.utility(v, starved), s.utility(v, fat))
	}
}

func TestUtilityUnservedGrowsWithWait(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(10))
	fresh := request.New(1, simclock.FromSeconds(9.5), 256, 512, 20)
	old := request.New(2, simclock.FromSeconds(2), 256, 512, 20)
	if s.utility(v, old) <= s.utility(v, fresh) {
		t.Error("longer-waiting request should have higher utility")
	}
}

func TestCanSurviveSwap(t *testing.T) {
	s := MustNew(DefaultConfig()) // μ=2, interval=1s -> needs 2*rate*1s = 40 tokens at 20 tok/s
	v := view(t, simclock.FromSeconds(5))
	thin := streamReq(1, 20, 10, 1000)
	fat := streamReq(2, 20, 100, 1000)
	if s.canSurviveSwap(v, thin) {
		t.Error("10-token buffer cannot survive a 2x1s swap at 20 tok/s")
	}
	if !s.canSurviveSwap(v, fat) {
		t.Error("100-token buffer should survive")
	}
	instant := streamReq(3, 0, 0, 1000)
	if !s.canSurviveSwap(v, instant) {
		t.Error("instant consumers are always swappable")
	}
}

func TestLightPassAdmitsFIFO(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, 0)
	a := request.New(1, 0, 1000, 100, 20)
	b := request.New(2, 0, 2000, 100, 20)
	v.Waiting = []*request.Request{a, b}
	v.FreeTokens = 2500
	d := s.Decide(v)
	if len(d.Admit) != 1 || d.Admit[0].Req.ID != 1 {
		t.Fatalf("admit = %+v, want only request 1 (head fits, second does not)", d.Admit)
	}
	if len(d.Preempt) != 0 {
		t.Error("light pass never preempts")
	}
}

func TestFullPassGatedByInterval(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(1))
	// Stressed: waiting non-empty, huge memory so light admission drains it.
	v.Waiting = []*request.Request{request.New(1, 0, 256, 512, 20)}
	s.Decide(v)
	if s.FullReschedules != 1 {
		t.Fatalf("first stressed decide should run a full pass, got %d", s.FullReschedules)
	}
	// 100ms later, still stressed: must take the light path.
	v2 := view(t, simclock.FromSeconds(1.1))
	v2.Waiting = []*request.Request{request.New(2, 0, 256, 512, 20)}
	s.Decide(v2)
	if s.FullReschedules != 1 {
		t.Errorf("full pass should be interval-gated, got %d", s.FullReschedules)
	}
	// After the interval elapses it runs again.
	v3 := view(t, simclock.FromSeconds(2.2))
	v3.Waiting = []*request.Request{request.New(3, 0, 256, 512, 20)}
	s.Decide(v3)
	if s.FullReschedules != 2 {
		t.Errorf("full pass should rerun after Δt, got %d", s.FullReschedules)
	}
}

func TestUnstressedTakesLightPath(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(1))
	v.Running = []*request.Request{streamReq(1, 20, 100, 1000)} // healthy buffer
	d := s.Decide(v)
	if s.FullReschedules != 0 || s.LightPasses != 1 {
		t.Errorf("full=%d light=%d", s.FullReschedules, s.LightPasses)
	}
	if len(d.Admit) != 0 && len(d.Preempt) != 0 {
		t.Error("nothing to do")
	}
}

func TestCriticalBufferTriggersStress(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(1))
	v.Running = []*request.Request{streamReq(1, 20, 5, 1000)} // 0.25s buffer < 1s critical
	s.Decide(v)
	if s.FullReschedules != 1 {
		t.Error("critical buffer should trigger a full pass")
	}
}

func TestFullPassPreemptsFatBufferForWaiting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExpectedContextTokens = 600
	s := MustNew(cfg)
	v := view(t, simclock.FromSeconds(5))
	// Pool of 1300 tokens, mostly held by one fat-buffer stream (context
	// 657): the 700-token newcomer only fits by preempting it.
	fat := streamReq(1, 20, 400, 2000) // 20s of buffer
	v.Running = []*request.Request{fat}
	v.TotalTokens = 1300
	v.FreeTokens = v.TotalTokens - (fat.PromptLen + fat.Generated)
	newcomer := request.New(2, simclock.FromSeconds(2), 700, 512, 20)
	v.Waiting = []*request.Request{newcomer}
	d := s.Decide(v)
	if len(d.Preempt) != 1 || d.Preempt[0].ID != 1 {
		t.Fatalf("expected preemption of the fat stream, got %+v", d.Preempt)
	}
	found := false
	for _, a := range d.Admit {
		if a.Req.ID == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("newcomer should be admitted, got %+v", d.Admit)
	}
}

func TestFullPassProtectsThinBuffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExpectedContextTokens = 600
	s := MustNew(cfg)
	v := view(t, simclock.FromSeconds(5))
	thin := streamReq(1, 20, 30, 2000) // 1.5s buffer < 3s target
	v.Running = []*request.Request{thin}
	v.TotalTokens = 1300
	v.FreeTokens = v.TotalTokens - (thin.PromptLen + thin.Generated)
	v.Waiting = []*request.Request{request.New(2, simclock.FromSeconds(2), 700, 512, 20)}
	d := s.Decide(v)
	for _, p := range d.Preempt {
		if p.ID == 1 {
			t.Error("thin-buffer stream must not be preempted")
		}
	}
}

func TestResumePreferredOverRecomputeWhenCheap(t *testing.T) {
	s := MustNew(DefaultConfig())
	v := view(t, simclock.FromSeconds(5))
	r := request.New(1, 0, 4096, 512, 20)
	r.State = request.StatePreempted
	// No Mem in view -> recompute is the only option.
	if got := s.resumeMode(v, r); got != sched.ResumeRecompute {
		t.Errorf("mode without host copy = %v", got)
	}
}

func TestFallbackOnOverload(t *testing.T) {
	cfg := DefaultConfig()
	s := MustNew(cfg)
	v := view(t, simclock.FromSeconds(5))
	// Demand far beyond H200 capacity: 2000 streams at 100 tok/s = 200k
	// tok/s demanded.
	for i := 0; i < 50; i++ {
		r := streamReq(100+i, 4000, 10, 30000)
		v.Running = append(v.Running, r)
	}
	v.Waiting = []*request.Request{request.New(1, 0, 256, 512, 4000)}
	d := s.Decide(v)
	if s.FallbackPasses != 1 {
		t.Fatalf("expected FCFS fallback, full=%d fallback=%d", s.FullReschedules, s.FallbackPasses)
	}
	if len(d.Preempt) != 0 {
		t.Error("fallback mode must not buffer-balance preempt")
	}
}

func TestFallbackDisabledByConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FallbackFCFS = false
	s := MustNew(cfg)
	v := view(t, simclock.FromSeconds(5))
	for i := 0; i < 50; i++ {
		v.Running = append(v.Running, streamReq(100+i, 4000, 10, 30000))
	}
	v.Waiting = []*request.Request{request.New(1, 0, 256, 512, 4000)}
	s.Decide(v)
	if s.FallbackPasses != 0 {
		t.Error("fallback disabled should never trigger")
	}
}

func TestLocalSearchSwapsInHigherUtility(t *testing.T) {
	// Construct candidates where greedy packs a big low-utility candidate
	// plus nothing else, and local search swaps it for a skipped
	// higher-utility one.
	cfg := DefaultConfig()
	s := MustNew(cfg)
	// Budget 1000. Greedy by utility packs only #1 (u=5, 900 tokens),
	// total utility 5, blocking two slightly-lower small requests. The
	// adjacent swap (#1,#2) repacks as {#2, #3} with utility 9.7.
	cands := []candidate{
		{req: request.New(1, 0, 10, 10, 20), utility: 5, tokens: 900},
		{req: request.New(2, 0, 10, 10, 20), utility: 4.9, tokens: 500},
		{req: request.New(3, 0, 10, 10, 20), utility: 4.8, tokens: 500},
	}
	sel := s.selectCandidates(cands, 1000, 0)
	if sel[0] || !sel[1] || !sel[2] {
		t.Errorf("local search should select {2,3}: %v", sel)
	}
	if s.SwapsApplied == 0 {
		t.Error("swap counter should increment")
	}
	// Without local search, greedy keeps only #1.
	cfg2 := DefaultConfig()
	cfg2.LocalSearch = false
	s2 := MustNew(cfg2)
	sel2 := s2.selectCandidates(cands, 1000, 0)
	if !sel2[0] || sel2[1] || sel2[2] {
		t.Errorf("pure greedy should keep only #1: %v", sel2)
	}
}

func TestSelectRespectsCommitted(t *testing.T) {
	s := MustNew(DefaultConfig())
	cands := []candidate{
		{req: request.New(1, 0, 10, 10, 20), utility: 0.1, tokens: 900, committed: true},
		{req: request.New(2, 0, 10, 10, 20), utility: 9, tokens: 500},
	}
	sel := s.selectCandidates(cands, 1000, 0)
	if !sel[0] {
		t.Error("committed candidates are always selected")
	}
	if sel[1] {
		t.Error("budget after committed (100) cannot fit candidate 2")
	}
}

func TestWorkingSetShrinksWhenUnderused(t *testing.T) {
	// Eq. 5: with few running requests the working set contracts; verify
	// indirectly — a stressed pass with tiny running count and plentiful
	// waiting should not admit unboundedly.
	cfg := DefaultConfig()
	cfg.ExpectedContextTokens = 1000
	cfg.AdjustRate = 1.0 // full shrink: W_sched = N_running+1
	s := MustNew(cfg)
	v := view(t, simclock.FromSeconds(5))
	v.TotalTokens = 100_000 // W_static = 100
	v.FreeTokens = 100_000
	for i := 0; i < 20; i++ {
		v.Waiting = append(v.Waiting, request.New(i, 0, 500, 500, 20))
	}
	d := s.Decide(v)
	// W_sched = W_static - 1.0*(100-0) = 0 -> clamped to N_running+1 = 1.
	if len(d.Admit) != 1 {
		t.Errorf("full-shrink working set should admit exactly 1, got %d", len(d.Admit))
	}
}
