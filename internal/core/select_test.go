package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// oracleSelect is the reference §4.2.2 local search: every trial swap
// re-packs the whole order into a fresh map keyed by request ID. It
// returns the selection and the number of swaps applied.
func oracleSelect(cands []candidate, budget, slots int, localSearch bool) (map[int]bool, int64) {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.committed != cb.committed {
			return ca.committed
		}
		return ca.utility > cb.utility
	})
	bestSel, bestUtil := oraclePack(cands, order, budget, slots)
	if !localSearch {
		return bestSel, 0
	}
	var swaps int64
	for k := 0; k+1 < len(order); k++ {
		if cands[order[k]].committed || cands[order[k+1]].committed {
			continue
		}
		order[k], order[k+1] = order[k+1], order[k]
		sel, util := oraclePack(cands, order, budget, slots)
		if util > bestUtil {
			bestSel, bestUtil = sel, util
			swaps++
		} else {
			order[k], order[k+1] = order[k+1], order[k]
		}
	}
	return bestSel, swaps
}

func oraclePack(cands []candidate, order []int, budget, slots int) (map[int]bool, float64) {
	selected := make(map[int]bool, len(order))
	remaining := budget
	left := slots
	util := 0.0
	for _, i := range order {
		c := cands[i]
		if c.committed {
			selected[c.req.ID] = true
			remaining -= c.tokens
			left--
			continue
		}
		if slots > 0 && left <= 0 {
			continue
		}
		if c.tokens <= remaining {
			selected[c.req.ID] = true
			remaining -= c.tokens
			left--
			util += c.utility
		}
	}
	return selected, util
}

// oracleReqs gives candidates distinct request IDs without building a
// request per case; only the ID is read.
var oracleReqs = func() []*request.Request {
	rs := make([]*request.Request, 256)
	for i := range rs {
		rs[i] = request.New(i, 0, 1, 1, 20)
	}
	return rs
}()

// decodeCands turns fuzz bytes into a candidate set, budget and slot cap.
// Small token and utility alphabets make ties and exact-fit packings
// common; the utility families 0.1·k and nextafter(1,2)·k make the
// selected-utility sum depend on its order.
func decodeCands(data []byte) (cands []candidate, budget, slots int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 48
	budget = at(1)*24 - 512 // negative budgets arise when committed entries overflow
	slots = at(2) % 12      // 0 = unbounded
	nextUp := math.Nextafter(1, 2)
	for i := 0; i < n; i++ {
		tok, u, flags := at(3+3*i), at(4+3*i), at(5+3*i)
		k := float64(u % 32)
		var util float64
		switch (flags >> 1) % 4 {
		case 0:
			util = 0.1 * k
		case 1:
			util = nextUp * k
		case 2:
			util = k // exact ties
		default:
			util = float64(u) / 7
		}
		cands = append(cands, candidate{
			req:       oracleReqs[i],
			utility:   util,
			tokens:    (tok % 64) * 16,
			resident:  flags&16 != 0,
			committed: flags&1 != 0 && flags&32 != 0, // one in four
		})
	}
	return cands, budget, slots
}

// checkSelect runs the scheduler's search on a scheduler whose buffers
// were dirtied by an earlier, different case, and compares selection and
// swap count with the oracle.
func checkSelect(t *testing.T, s *Scheduler, cands []candidate, budget, slots int) {
	t.Helper()
	want, wantSwaps := oracleSelect(cands, budget, slots, s.cfg.LocalSearch)
	before := s.SwapsApplied
	got := s.selectCandidates(cands, budget, slots)
	if len(got) != len(cands) {
		t.Fatalf("selection has %d entries for %d candidates", len(got), len(cands))
	}
	for i, c := range cands {
		if got[i] != want[c.req.ID] {
			t.Fatalf("candidate %d (%+v): selected=%v, oracle %v\ncands=%+v budget=%d slots=%d",
				i, c, got[i], want[c.req.ID], cands, budget, slots)
		}
	}
	if swaps := s.SwapsApplied - before; swaps != wantSwaps {
		t.Fatalf("swaps applied %d, oracle %d\ncands=%+v budget=%d slots=%d", swaps, wantSwaps, cands, budget, slots)
	}
}

func FuzzSelectCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cands, budget, slots := decodeCands(data)
		for _, ls := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.LocalSearch = ls
			s := MustNew(cfg)
			rev := append([]candidate(nil), cands...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			s.selectCandidates(rev, budget/2, slots+1)
			checkSelect(t, s, cands, budget, slots)
		}
	})
}

// TestSelectCandidatesMatchesOracle is the fuzz target's deterministic
// counterpart: 20k random cases through one long-lived scheduler, so
// every case also starts from buffers left by the previous one.
func TestSelectCandidatesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := MustNew(DefaultConfig())
	data := make([]byte, 3+3*48)
	for i := 0; i < 20_000; i++ {
		rng.Read(data)
		cands, budget, slots := decodeCands(data)
		checkSelect(t, s, cands, budget, slots)
	}
}

// stressedView builds a view whose forced full pass packs n candidates:
// two thirds running streams with buffers from 2.5s to beyond 20s, one
// third waiting requests, on a pool sized so the balancer both preempts
// and admits.
func stressedView(tb testing.TB, n int) *sched.View {
	tb.Helper()
	cost, err := gpu.NewCostModel(gpu.H200, model.Llama3_8B)
	if err != nil {
		tb.Fatal(err)
	}
	v := &sched.View{
		Now: simclock.FromSeconds(100), PageTokens: 16, Cost: cost,
		AvgIterTime: 20 * time.Millisecond,
	}
	running := 2 * n / 3
	used := 0
	for i := 0; i < running; i++ {
		r := streamReq(i, 20, 50+(i*7)%400, 2000)
		v.Running = append(v.Running, r)
		used += r.PromptLen + r.Generated
	}
	for i := running; i < n; i++ {
		v.Waiting = append(v.Waiting, request.New(i, simclock.FromSeconds(99), 512, 1024, 20))
	}
	v.TotalTokens = used + used/4
	v.FreeTokens = v.TotalTokens - used
	return v
}

// fullPassScheduler forces the buffer-balancing path: the FCFS fallback
// would otherwise take over when hundreds of 20 tok/s readers exceed the
// device's decode capacity. A fixed β sizes the working set (Eq. 4) large
// enough for the waiting requests to enter it.
func fullPassScheduler() *Scheduler {
	cfg := DefaultConfig()
	cfg.FallbackFCFS = false
	cfg.ExpectedContextTokens = 600
	return MustNew(cfg)
}

func TestSelectCandidatesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 3+3*48)
	rng.Read(data)
	data[0] = 47
	cands, budget, slots := decodeCands(data)
	s := MustNew(DefaultConfig())
	s.selectCandidates(cands, budget, slots) // warm-up grows the buffers
	if a := testing.AllocsPerRun(100, func() { s.selectCandidates(cands, budget, slots) }); a != 0 {
		t.Errorf("selectCandidates allocates %v times per call after warm-up", a)
	}
}

func TestFullPassAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{64, 512} {
		s, v := fullPassScheduler(), stressedView(t, n)
		d := s.Decide(v) // warm-up grows the buffers
		if s.FullReschedules != 1 {
			t.Fatalf("n=%d: %d full passes, want 1", n, s.FullReschedules)
		}
		if len(d.Preempt) == 0 || len(d.Admit) == 0 {
			t.Fatalf("n=%d: want a pass that preempts and admits, got %d/%d", n, len(d.Preempt), len(d.Admit))
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			s.ForceFullPass()
			s.Decide(v)
		})
	}
	if allocs[64] != allocs[512] {
		t.Errorf("full-pass allocations grow with candidates: %v at 64, %v at 512", allocs[64], allocs[512])
	}
}

var sinkDecision sched.Decision

func BenchmarkFullPass(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, v := fullPassScheduler(), stressedView(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ForceFullPass()
				sinkDecision = s.Decide(v)
			}
		})
	}
}
