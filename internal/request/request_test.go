package request

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func TestNewDefaults(t *testing.T) {
	r := New(7, simclock.FromSeconds(1), 128, 256, 20)
	if r.State != StateQueued {
		t.Errorf("state = %v", r.State)
	}
	if r.ContextLen() != 0 {
		t.Errorf("context before prefill = %d", r.ContextLen())
	}
	if r.FullContextLen() != 384 {
		t.Errorf("full context = %d", r.FullContextLen())
	}
	if r.BufferLen() != 0 || r.Stalled() {
		t.Error("fresh request should have empty buffer and no stall")
	}
}

func TestNewRejectsDegenerateLengths(t *testing.T) {
	for _, c := range []struct{ p, o int }{{0, 10}, {10, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(p=%d,o=%d) should panic", c.p, c.o)
				}
			}()
			New(0, 0, c.p, c.o, 10)
		}()
	}
}

func TestStateString(t *testing.T) {
	if StateQueued.String() != "queued" || StateFinished.String() != "finished" {
		t.Error("state names wrong")
	}
	if State(99).String() == "" {
		t.Error("unknown state should still format")
	}
}

func TestDeliverFirstTokenSetsTTFT(t *testing.T) {
	clock := simclock.New()
	r := New(0, simclock.FromSeconds(1), 10, 5, 10)
	clock.RunUntil(simclock.FromSeconds(3))
	r.DeliverTokens(clock, clock.Now(), 1)
	if r.FirstTokenAt != simclock.FromSeconds(3) {
		t.Errorf("first token at %v", r.FirstTokenAt)
	}
	if r.TTFT() != 2*time.Second {
		t.Errorf("TTFT = %v", r.TTFT())
	}
}

func TestConsumptionDrainsAtRate(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 10, 10) // reads 10 tok/s
	// Deliver all 10 tokens at t=0.
	r.DeliverTokens(clock, 0, 10)
	if r.Consumed != 1 {
		t.Fatalf("first token consumed immediately at TTFT; consumed=%d", r.Consumed)
	}
	clock.RunUntil(simclock.FromSeconds(0.45))
	// At 0.45s: tokens at t=0, .1, .2, .3, .4 -> 5 consumed.
	if r.Consumed != 5 {
		t.Errorf("consumed = %d at 0.45s, want 5", r.Consumed)
	}
	clock.Run()
	if !r.ConsumptionDone() {
		t.Error("all tokens should eventually be consumed")
	}
	if r.RebufferTotal != 0 {
		t.Errorf("no stalls expected, got %v", r.RebufferTotal)
	}
}

func TestStallAccounting(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 3, 10) // wants a token every 100ms
	r.DeliverTokens(clock, 0, 1)
	// Client consumed token 1 at t=0, wants token 2 at t=0.1; we deliver it
	// at t=0.5 -> 400ms stall.
	clock.RunUntil(simclock.FromSeconds(0.5))
	if !r.Stalled() {
		t.Fatal("client should be stalled waiting for token 2")
	}
	r.DeliverTokens(clock, clock.Now(), 1)
	if r.Stalled() {
		t.Error("delivery should clear the stall")
	}
	if got := r.RebufferTotal; got != 400*time.Millisecond {
		t.Errorf("rebuffer = %v, want 400ms", got)
	}
	// Token 3 delivered late again: wants it at 0.6, arrives 0.8 -> +200ms.
	clock.RunUntil(simclock.FromSeconds(0.8))
	r.DeliverTokens(clock, clock.Now(), 1)
	clock.Run()
	if got := r.RebufferTotal; got != 600*time.Millisecond {
		t.Errorf("total rebuffer = %v, want 600ms", got)
	}
	if !r.ConsumptionDone() {
		t.Error("consumption should complete")
	}
}

func TestBufferOccupancyRecorded(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 4, 1) // very slow reader
	r.DeliverTokens(clock, 0, 2)
	r.DeliverTokens(clock, simclock.FromSeconds(0.1), 2)
	// Token 1: buffer 1 (itself). Token 2: buffer 2. Then the client
	// consumed token 1 at t=0, so tokens 3 and 4 see buffers 2 and 3.
	want := []int32{1, 2, 2, 3}
	for i, w := range want {
		if r.BufferAtGen[i] != w {
			t.Errorf("BufferAtGen[%d] = %d, want %d (all=%v)", i, r.BufferAtGen[i], w, r.BufferAtGen)
		}
	}
}

func TestInstantConsumerNeverBuffers(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 5, 0)
	if !r.InstantConsumer() {
		t.Fatal("rate 0 should be instant")
	}
	r.DeliverTokens(clock, 0, 3)
	if r.BufferLen() != 0 {
		t.Errorf("instant consumer buffer = %d", r.BufferLen())
	}
	r.DeliverTokens(clock, simclock.FromSeconds(1), 2)
	clock.Run()
	if r.BufferLen() != 0 {
		// Tokens after the first batch are drained on the next delivery...
		t.Errorf("buffer = %d after final delivery", r.BufferLen())
	}
}

func TestDeliverPastOutputLenPanics(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("overdelivery should panic")
		}
	}()
	r.DeliverTokens(clock, 0, 3)
}

func TestDeliverZeroIsNoop(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	r.DeliverTokens(clock, 0, 0)
	if r.Generated != 0 {
		t.Error("zero delivery should not generate")
	}
}

func TestGenerationFinishSetsTimestamp(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	r.DeliverTokens(clock, simclock.FromSeconds(1), 1)
	r.DeliverTokens(clock, simclock.FromSeconds(2), 1)
	if !r.GenerationDone() {
		t.Fatal("generation should be done")
	}
	if r.FinishedAt != simclock.FromSeconds(2) {
		t.Errorf("finished at %v", r.FinishedAt)
	}
}

func TestBufferSeconds(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 100, 20)
	r.DeliverTokens(clock, 0, 41)
	// 41 generated, 1 consumed immediately -> 40 buffered = 2s at 20 tok/s.
	if got := r.BufferSeconds(); got != 2.0 {
		t.Errorf("buffer seconds = %v (buffer=%d)", got, r.BufferLen())
	}
}

func TestCancelConsumption(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 10, 10)
	r.DeliverTokens(clock, 0, 5)
	r.CancelConsumption(clock)
	clock.Run()
	if r.Consumed != 1 {
		t.Errorf("consumed = %d after cancel, want 1", r.Consumed)
	}
}

// Property: however tokens are delivered over time, consumption never
// exceeds generation, buffer stays non-negative, and the client eventually
// consumes everything with rebuffer >= 0.
func TestPropertyConsumptionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := simclock.New()
		out := rng.Intn(200) + 1
		r := New(0, 0, 16, out, float64(rng.Intn(40)+5))
		now := simclock.Time(0)
		remaining := out
		for remaining > 0 {
			n := rng.Intn(remaining) + 1
			remaining -= n
			now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
			clock.RunUntil(now)
			r.DeliverTokens(clock, now, n)
			if r.Consumed > r.Generated || r.BufferLen() < 0 {
				return false
			}
		}
		clock.Run()
		return r.ConsumptionDone() && r.RebufferTotal >= 0 && r.Generated == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with all tokens delivered upfront, a rate-r client finishes
// consuming L tokens in exactly (L-1)/r seconds with zero rebuffering.
func TestPropertyUpfrontDeliveryNoStall(t *testing.T) {
	f := func(lenRaw, rateRaw uint8) bool {
		l := int(lenRaw%100) + 2
		rate := float64(rateRaw%30) + 1
		clock := simclock.New()
		r := New(0, 0, 8, l, rate)
		r.DeliverTokens(clock, 0, l)
		clock.Run()
		if r.RebufferTotal != 0 || !r.ConsumptionDone() {
			return false
		}
		want := simclock.Duration(float64(l-1) / rate)
		got := clock.Now().Sub(0)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
