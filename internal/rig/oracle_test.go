package rig

import (
	"strings"
	"testing"

	"wearlock/internal/store"
)

func dev(id int, key string, gen, ver uint64) store.DeviceState {
	return store.DeviceState{ID: id, Key: []byte(key), GenCounter: gen, VerCounter: ver}
}

func state(ds ...store.DeviceState) store.State {
	st := store.State{Devices: map[int]store.DeviceState{}}
	for _, d := range ds {
		st.Devices[d.ID] = d
	}
	return st
}

// TestOracle covers every failure kind, the uint64-wrap case (a device
// whose counter regressed while it also has acks) and a non-zero
// pre-state, where an absolute-counter check would pass a drill whose own
// traffic was lost.
func TestOracle(t *testing.T) {
	cases := []struct {
		name   string
		before store.State
		acked  map[int]int
		after  store.State
		want   Verdict
		detail string // substring of the only failure line
	}{
		{
			name:   "clean",
			before: state(dev(0, "k0", 1, 1), dev(1, "k1", 5, 5)),
			acked:  map[int]int{0: 2, 1: 1},
			after:  state(dev(0, "k0", 3, 3), dev(1, "k1", 9, 9)),
		},
		{
			name:   "acks on a device new to the state",
			before: state(),
			acked:  map[int]int{4: 3},
			after:  state(dev(4, "k4", 3, 3)),
		},
		{
			name:   "lost device",
			before: state(dev(0, "k0", 1, 1), dev(1, "k1", 1, 1)),
			after:  state(dev(0, "k0", 1, 1)),
			want:   Verdict{LostDevices: 1},
			detail: "device 1 lost",
		},
		{
			name:   "key change",
			before: state(dev(0, "k0", 1, 1)),
			after:  state(dev(0, "other", 1, 1)),
			want:   Verdict{KeyChanges: 1},
			detail: "device 0 pairing key changed",
		},
		{
			name:   "verifier regression",
			before: state(dev(0, "k0", 4, 4)),
			after:  state(dev(0, "k0", 4, 3)),
			want:   Verdict{CounterRegressions: 1},
			detail: "ver 4->3",
		},
		{
			name:   "generator regression",
			before: state(dev(0, "k0", 4, 4)),
			after:  state(dev(0, "k0", 2, 4)),
			want:   Verdict{CounterRegressions: 1},
			detail: "gen 4->2",
		},
		{
			name:   "lost ack",
			before: state(dev(0, "k0", 1, 1)),
			acked:  map[int]int{0: 3},
			after:  state(dev(0, "k0", 3, 3)),
			want:   Verdict{LostOrReplayed: 1},
			detail: "acked 3 unlocks but its verifier counter advanced 2",
		},
		{
			name:   "regressed device with acks does not wrap",
			before: state(dev(0, "k0", 10, 10)),
			acked:  map[int]int{0: 1},
			after:  state(dev(0, "k0", 10, 7)),
			want:   Verdict{CounterRegressions: 1, LostOrReplayed: 1},
		},
		{
			name:   "non-zero pre-state judged on the drill's own traffic",
			before: state(dev(0, "k0", 100, 100)),
			acked:  map[int]int{0: 5},
			after:  state(dev(0, "k0", 102, 102)),
			want:   Verdict{LostOrReplayed: 1},
			detail: "acked 5 unlocks but its verifier counter advanced 2",
		},
		{
			name:   "acked device missing from both states",
			before: state(),
			acked:  map[int]int{2: 1},
			after:  state(),
			want:   Verdict{LostOrReplayed: 1},
			detail: "device 2 acked 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Oracle(tc.before, tc.acked, tc.after)
			if got.LostDevices != tc.want.LostDevices || got.KeyChanges != tc.want.KeyChanges ||
				got.CounterRegressions != tc.want.CounterRegressions || got.LostOrReplayed != tc.want.LostOrReplayed {
				t.Fatalf("verdict %+v, want %+v", got, tc.want)
			}
			wantFailures := tc.want.LostDevices + tc.want.KeyChanges + tc.want.CounterRegressions + tc.want.LostOrReplayed
			if len(got.Failures) != wantFailures || got.OK() != (wantFailures == 0) || len(got.Problems()) > wantFailures {
				t.Fatalf("failures %q (OK %v, problems %q), want %d", got.Failures, got.OK(), got.Problems(), wantFailures)
			}
			if tc.detail != "" && !strings.Contains(got.Failures[0], tc.detail) {
				t.Errorf("failure %q does not mention %q", got.Failures[0], tc.detail)
			}
		})
	}
}

// TestVerdictAdd folds drill steps together.
func TestVerdictAdd(t *testing.T) {
	var v Verdict
	v.Add(Verdict{LostDevices: 1, Failures: []string{"a"}})
	v.Add(Verdict{KeyChanges: 2, CounterRegressions: 3, LostOrReplayed: 4, Failures: []string{"b"}})
	if v.LostDevices != 1 || v.KeyChanges != 2 || v.CounterRegressions != 3 || v.LostOrReplayed != 4 ||
		len(v.Failures) != 2 || len(v.Problems()) != 4 || v.OK() {
		t.Errorf("folded verdict %+v, problems %q", v, v.Problems())
	}
}

// TestMaxState keeps, per device, the record with the highest verifier
// counter (generator counter breaking ties) across shards.
func TestMaxState(t *testing.T) {
	got := MaxState(
		state(dev(0, "old", 3, 3), dev(1, "k1", 1, 1), dev(2, "k2", 4, 5)),
		state(dev(0, "new", 7, 7), dev(2, "k2", 6, 5)),
		state(dev(3, "k3", 2, 2)),
	)
	want := state(dev(0, "new", 7, 7), dev(1, "k1", 1, 1), dev(2, "k2", 6, 5), dev(3, "k3", 2, 2))
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("MaxState kept %d devices, want %d", len(got.Devices), len(want.Devices))
	}
	if v := Oracle(want, nil, got); !v.OK() {
		t.Errorf("MaxState differs from the per-device maximum: %q", v.Failures)
	}
	if v := Oracle(got, nil, want); !v.OK() {
		t.Errorf("MaxState exceeds the per-device maximum: %q", v.Failures)
	}
}
