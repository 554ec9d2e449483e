package chaos

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestActive(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want bool
	}{
		{"nil", nil, false},
		{"zero", &Spec{}, false},
		{"redundancy-1-is-off", &Spec{Redundancy: 1}, false},
		{"recovery-knobs-alone-inactive", &Spec{RetryMax: 5, DetectDelay: time.Second}, false},
		{"scripted-fault", &Spec{Faults: []Fault{{Kind: Crash, Replica: 0}}}, true},
		{"random-faults", &Spec{RandomFaults: 1, Horizon: simclock.FromSeconds(10)}, true},
		{"redundancy-2", &Spec{Redundancy: 2}, true},
	}
	for _, c := range cases {
		if got := c.spec.Active(); got != c.want {
			t.Errorf("%s: Active() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	flap := func(from, to int, d time.Duration) Fault {
		return Fault{Kind: LinkFlap, From: from, To: to, Duration: d}
	}
	cases := []struct {
		name     string
		spec     *Spec
		replicas int
		ok       bool
	}{
		{"nil", nil, 0, true},
		{"zero", &Spec{}, 1, true},
		{"crash-ok", &Spec{Faults: []Fault{{Kind: Crash, At: 1, Replica: 2}}}, 3, true},
		{"crash-out-of-pool", &Spec{Faults: []Fault{{Kind: Crash, Replica: 3}}}, 3, false},
		{"negative-time", &Spec{Faults: []Fault{{Kind: Crash, At: -1}}}, 3, false},
		{"brownout-ok", &Spec{Faults: []Fault{{Kind: Brownout, Replica: 0, Factor: 2, Duration: time.Second}}}, 1, true},
		{"brownout-factor-1", &Spec{Faults: []Fault{{Kind: Brownout, Factor: 1, Duration: time.Second}}}, 1, false},
		{"brownout-no-duration", &Spec{Faults: []Fault{{Kind: Brownout, Factor: 2}}}, 1, false},
		{"flap-ok", &Spec{Faults: []Fault{flap(0, 1, time.Second)}}, 2, true},
		{"flap-self-link", &Spec{Faults: []Fault{flap(1, 1, time.Second)}}, 3, false},
		{"flap-out-of-pool", &Spec{Faults: []Fault{flap(0, 2, time.Second)}}, 2, false},
		{"flap-no-duration", &Spec{Faults: []Fault{flap(0, 1, 0)}}, 2, false},
		{"unknown-kind", &Spec{Faults: []Fault{{Kind: numKinds}}}, 2, false},
		{"random-needs-horizon", &Spec{RandomFaults: 2}, 4, false},
		{"random-needs-survivors", &Spec{RandomFaults: 2, Horizon: simclock.FromSeconds(10)}, 1, false},
		{"random-ok", &Spec{RandomFaults: 2, Horizon: simclock.FromSeconds(10)}, 2, true},
		{"negative-redundancy", &Spec{Redundancy: -1}, 2, false},
	}
	for _, c := range cases {
		_, err := c.spec.Normalize(c.replicas)
		if (err == nil) != c.ok {
			t.Errorf("%s: Normalize(%d) = %v, want ok=%v", c.name, c.replicas, err, c.ok)
		}
	}
}

// TestDefaults pins the recovery-knob defaults Normalize fills: zero and
// negative knobs resolve to the defaults, explicit ones to themselves, a
// nil spec stays nil, and normalizing twice changes nothing.
func TestDefaults(t *testing.T) {
	defaults := Spec{RetryMax: DefaultRetryMax, RetryBackoff: DefaultRetryBackoff,
		DetectDelay: DefaultDetectDelay, ReplicateEvery: DefaultReplicateEvery,
		ReplicateConcurrency: DefaultReplicateConcurrency}
	set := Spec{RetryMax: 7, RetryBackoff: time.Second, DetectDelay: 2 * time.Second,
		ReplicateEvery: 3 * time.Second, ReplicateConcurrency: 9}
	cases := []struct {
		name string
		in   Spec
		want Spec
	}{
		{"zero", Spec{}, defaults},
		{"negative", Spec{RetryMax: -1, RetryBackoff: -time.Second, DetectDelay: -1,
			ReplicateEvery: -1, ReplicateConcurrency: -2}, defaults},
		{"explicit", set, set},
	}
	for _, c := range cases {
		got, err := c.in.Normalize(2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%s: Normalize = %+v, want %+v", c.name, *got, c.want)
		}
		again, err := got.Normalize(2)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: Normalize is not idempotent: %+v, %v", c.name, again, err)
		}
	}
	if got, err := (*Spec)(nil).Normalize(2); got != nil || err != nil {
		t.Errorf("nil spec normalized to %+v, %v", got, err)
	}
}

// TestResolvedDeterministic pins the random-plan contract: the draw is a
// pure function of (Seed, RandomFaults, Horizon, replicas), and every
// resolved fault is itself valid for the pool.
func TestResolvedDeterministic(t *testing.T) {
	spec := func() *Spec {
		return &Spec{
			Faults:       []Fault{{Kind: Crash, At: simclock.FromSeconds(8), Replica: 1}},
			RandomFaults: 12,
			Seed:         42,
			Horizon:      simclock.FromSeconds(60),
		}
	}
	const replicas = 4
	a, b := spec().Resolved(replicas), spec().Resolved(replicas)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs resolved to different plans")
	}
	if want := 1 + 12; len(a) != want {
		t.Fatalf("resolved %d faults, want %d", len(a), want)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Error("resolved plan not sorted by injection time")
	}
	// The resolved plan must pass its own validation — the generator may
	// not draw faults the scripted path would reject.
	if _, err := (&Spec{Faults: a}).Normalize(replicas); err != nil {
		t.Errorf("resolved plan fails validation: %v", err)
	}
	// At most one crash in the whole plan: the pool must keep survivors
	// for retries to land on.
	crashes := 0
	for _, f := range a {
		if f.Kind == Crash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Errorf("resolved plan has %d crashes, want exactly the scripted 1", crashes)
	}

	other := spec()
	other.Seed = 43
	if reflect.DeepEqual(a, other.Resolved(replicas)) {
		t.Error("different seeds resolved to identical plans")
	}
}

// TestResolvedLeavesSpec pins that Resolved never mutates the scripted
// plan it was given — the cluster resolves once per run and the spec may
// be shared across cells.
func TestResolvedLeavesSpec(t *testing.T) {
	s := &Spec{
		Faults:       []Fault{{Kind: Crash, At: simclock.FromSeconds(50), Replica: 0}},
		RandomFaults: 4,
		Seed:         7,
		Horizon:      simclock.FromSeconds(60),
	}
	before := append([]Fault(nil), s.Faults...)
	s.Resolved(3)
	if !reflect.DeepEqual(s.Faults, before) {
		t.Error("Resolved mutated the scripted fault list")
	}
}
