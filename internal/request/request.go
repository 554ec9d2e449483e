// Package request models the lifecycle of one streaming generation request:
// its phase transitions (queued, running, preempted, loading, finished), its
// client-side token buffer, and the client consumption process that drains
// the buffer at the request's required rate. The buffer dynamics here are
// the substrate for both the TokenFlow scheduler (buffer-aware priorities)
// and the QoS metrics (stalls, token usefulness).
package request

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// State is a request's lifecycle phase.
type State int

const (
	// StateQueued: arrived, never prefilled; waiting for admission.
	StateQueued State = iota
	// StateRunning: KV resident on GPU, member of the running batch.
	StateRunning
	// StatePreempted: previously running; KV offloaded to host memory or
	// discarded, waiting to be resumed.
	StatePreempted
	// StateLoading: resume in progress (KV transferring host-to-device or
	// recompute prefill queued).
	StateLoading
	// StateFinished: all output tokens generated.
	StateFinished
)

var stateNames = [...]string{"queued", "running", "preempted", "loading", "finished"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Sample is one point of the queued/running time series (the paper's
// Figures 14 and 15): Queued counts requests waiting for service (never
// admitted, preempted, or loading), Running the resident decode batch.
type Sample struct {
	At      simclock.Time
	Queued  int
	Running int
}

// Request is one streaming generation request and its runtime bookkeeping.
// Fields are managed by the serving engine; schedulers read them through
// the sched.View. A Request is not safe for concurrent use: the simulator
// is single-threaded by design.
type Request struct {
	ID      int
	Arrival simclock.Time

	// PromptLen and OutputLen are the prompt size and the total number of
	// output tokens the request will generate.
	PromptLen int
	OutputLen int

	// Rate is the client's token consumption rate in tokens/second
	// (reading or listening speed). Rate <= 0 means the client consumes
	// tokens instantly (e.g. an agent), so the buffer never accumulates.
	Rate float64

	// Session and Turn identify the multi-turn conversation this request
	// belongs to (Session 0 = stateless). Turns of one session share a
	// growing prompt prefix; routers use this for KV affinity.
	Session int
	Turn    int

	// CachedPrompt is the number of leading prompt tokens whose KV was
	// already resident on the serving replica at admission (a prefix-cache
	// hit). Prefill skips computing them; memory is still allocated for the
	// full prompt. Always < PromptLen.
	CachedPrompt int

	State State

	// PrefilledTokens tracks chunked-prefill progress through the prompt.
	// The prompt is fully processed when PrefilledTokens == PromptLen.
	PrefilledTokens int

	// Generated counts output tokens produced so far; Consumed counts
	// tokens the client has read. Buffer occupancy = Generated - Consumed.
	Generated int
	Consumed  int

	// FirstTokenAt is when the first output token was generated (valid
	// once Generated > 0). FinishedAt is when the last token was generated.
	FirstTokenAt simclock.Time
	FinishedAt   simclock.Time

	// TokenTimes and BufferAtGen record, per output token, its generation
	// timestamp and the buffer occupancy immediately after it was appended
	// (the B_{i,j} of the paper's QoS definition).
	TokenTimes  []simclock.Time
	BufferAtGen []int32

	// Stall accounting: RebufferTotal accumulates time the client spent
	// waiting on an empty buffer after starting to read.
	RebufferTotal   time.Duration
	waitingForToken bool
	stallStart      simclock.Time
	consumeEvent    simclock.Handle

	// Preemptions and Resumes count context-switch cycles; LoadedResumes
	// counts resumes served from host memory (vs recompute).
	Preemptions   int
	Resumes       int
	LoadedResumes int

	// Retries counts how many times the request re-entered the gateway
	// after its serving replica crashed. Each retry resets generation
	// progress (the dead replica's partial output is gone) but keeps
	// Arrival, so TTFT stays honest about the full client wait.
	Retries int
}

// New returns a queued request. OutputLen must be at least 1.
func New(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) *Request {
	r := &Request{}
	r.init(id, arrival, promptLen, outputLen, rate)
	return r
}

func (r *Request) init(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) {
	if promptLen < 1 || outputLen < 1 {
		panic(fmt.Sprintf("request %d: prompt %d / output %d must be >= 1", id, promptLen, outputLen))
	}
	r.ID = id
	r.Arrival = arrival
	r.PromptLen = promptLen
	r.OutputLen = outputLen
	r.Rate = rate
	r.State = StateQueued
}

// Arena batch-allocates Requests in fixed-size slabs, cutting the
// per-arrival allocator round-trip on million-request traces. Requests
// live for the whole run (results reference them), so slots are never
// reused — the arena amortizes allocation, it does not pool. One Arena
// serves one goroutine: the cluster keeps one per shard.
type Arena struct {
	slab []Request
}

// arenaSlab is the number of Requests allocated per slab. At ~300 B per
// Request a slab is ~150 KiB: big enough to make the allocator cost per
// request negligible, small enough not to strand memory on tiny runs.
const arenaSlab = 512

// New carves a queued request out of the arena's current slab.
func (a *Arena) New(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) *Request {
	if len(a.slab) == 0 {
		a.slab = make([]Request, arenaSlab)
	}
	r := &a.slab[0]
	a.slab = a.slab[1:]
	r.init(id, arrival, promptLen, outputLen, rate)
	return r
}

// ContextLen reports the tokens of KV context the request occupies when
// resident: prefilled prompt tokens plus generated output tokens.
func (r *Request) ContextLen() int { return r.PrefilledTokens + r.Generated }

// FullContextLen reports the context length at completion, used for
// capacity reservations.
func (r *Request) FullContextLen() int { return r.PromptLen + r.OutputLen }

// BufferLen reports the client-side buffer occupancy in tokens.
func (r *Request) BufferLen() int { return r.Generated - r.Consumed }

// BufferSeconds reports how long the current buffer sustains playback at
// the request's consumption rate. Infinite-rate (Rate<=0) clients always
// report zero.
func (r *Request) BufferSeconds() float64 {
	if r.Rate <= 0 {
		return 0
	}
	return float64(r.BufferLen()) / r.Rate
}

// GenerationDone reports whether all output tokens have been produced.
func (r *Request) GenerationDone() bool { return r.Generated >= r.OutputLen }

// ConsumptionDone reports whether the client has read every token.
func (r *Request) ConsumptionDone() bool { return r.Consumed >= r.OutputLen }

// PrefillDone reports whether the prompt is fully processed.
func (r *Request) PrefillDone() bool { return r.PrefilledTokens >= r.PromptLen }

// RemainingOutput reports how many output tokens are still to generate.
func (r *Request) RemainingOutput() int { return r.OutputLen - r.Generated }

// TTFT reports the time-to-first-token. It is only meaningful once the
// first token exists; callers gate on Generated > 0.
func (r *Request) TTFT() time.Duration { return r.FirstTokenAt.Sub(r.Arrival) }

// Stalled reports whether the client is currently blocked on an empty
// buffer.
func (r *Request) Stalled() bool { return r.waitingForToken }

// DeliverTokens appends n freshly generated tokens at time now, recording
// timestamps and buffer occupancies, and wakes the consumption process if
// the client was stalled. The clock drives subsequent consume events.
func (r *Request) DeliverTokens(clock *simclock.Clock, now simclock.Time, n int) {
	if n <= 0 {
		return
	}
	if r.Generated+n > r.OutputLen {
		panic(fmt.Sprintf("request %d: delivering %d tokens past output length %d (have %d)",
			r.ID, n, r.OutputLen, r.Generated))
	}
	first := r.Generated == 0
	if r.TokenTimes == nil {
		// The final sizes are known up front (one entry per output token),
		// so the per-token records are allocated exactly once at first
		// delivery — never grown — and only for requests actually served.
		r.TokenTimes = make([]simclock.Time, 0, r.OutputLen)
		r.BufferAtGen = make([]int32, 0, r.OutputLen)
	}
	for i := 0; i < n; i++ {
		r.Generated++
		r.TokenTimes = append(r.TokenTimes, now)
		r.BufferAtGen = append(r.BufferAtGen, int32(r.Generated-r.Consumed))
	}
	if first {
		r.FirstTokenAt = now
	}
	if r.Rate <= 0 {
		// Instant consumer: drain everything as it arrives.
		r.Consumed = r.Generated
	} else if first {
		r.startConsumption(clock, now)
	} else if r.waitingForToken {
		// Client was mid-stall; it reads the new token immediately.
		r.RebufferTotal += now.Sub(r.stallStart)
		r.waitingForToken = false
		r.consumeOne(clock, now)
	}
	if r.GenerationDone() {
		r.FinishedAt = now
	}
}

// startConsumption begins the client reading process at the moment the
// first token arrives (the paper's model: the user starts reading at
// t_ttft and consumes one token every 1/r seconds).
func (r *Request) startConsumption(clock *simclock.Clock, now simclock.Time) {
	r.consumeOne(clock, now)
}

// consumeOne consumes a single buffered token at now and schedules the next
// consume event 1/Rate later.
func (r *Request) consumeOne(clock *simclock.Clock, now simclock.Time) {
	r.Consumed++
	if r.ConsumptionDone() {
		return
	}
	interval := simclock.Duration(1 / r.Rate)
	r.consumeEvent = clock.After(interval, func(t simclock.Time) { r.consumeTick(clock, t) })
}

// consumeTick fires when the client wants its next token.
func (r *Request) consumeTick(clock *simclock.Clock, now simclock.Time) {
	if r.Consumed < r.Generated {
		r.consumeOne(clock, now)
		return
	}
	// Buffer empty: stall until the next delivery.
	r.waitingForToken = true
	r.stallStart = now
}

// CancelConsumption cancels any pending consume event; used when a
// simulation tears down early. The handle is generation-checked, so this
// is safe even when the event already fired and its slot was recycled.
func (r *Request) CancelConsumption(clock *simclock.Clock) {
	clock.Cancel(r.consumeEvent)
	r.consumeEvent = simclock.Handle{}
}

// InstantConsumer reports whether the request drains its buffer instantly.
func (r *Request) InstantConsumer() bool { return r.Rate <= 0 }

// ResetForRetry rewinds the request to a fresh queued state after its
// serving replica crashed: all generation progress, per-token records, and
// client-buffer state are discarded (the partial output died with the
// replica) and any pending consume event is cancelled on the clock that
// was driving it. Arrival is preserved — the retried request's TTFT spans
// the crash and the backoff, which is exactly the damage the chaos
// experiments measure — and Retries increments.
func (r *Request) ResetForRetry(clock *simclock.Clock) {
	r.CancelConsumption(clock)
	r.State = StateQueued
	r.CachedPrompt = 0
	r.PrefilledTokens = 0
	r.Generated = 0
	r.Consumed = 0
	r.FirstTokenAt = 0
	r.FinishedAt = 0
	r.TokenTimes = nil
	r.BufferAtGen = nil
	r.RebufferTotal = 0
	r.waitingForToken = false
	r.stallStart = 0
	r.Preemptions = 0
	r.Resumes = 0
	r.LoadedResumes = 0
	r.Retries++
}

func (r *Request) String() string {
	return fmt.Sprintf("req%d[%s p=%d o=%d r=%.0f gen=%d buf=%d]",
		r.ID, r.State, r.PromptLen, r.OutputLen, r.Rate, r.Generated, r.BufferLen())
}
