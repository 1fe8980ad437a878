package rig

import (
	"bytes"
	"fmt"
	"sort"

	"wearlock/internal/store"
)

// Verdict is the Oracle's finding; the zero Verdict passes. The counts
// are of devices, and Failures names each offending device once per
// broken rule.
type Verdict struct {
	// LostDevices were in the pre-load state but are absent afterwards.
	LostDevices int `json:"lost_devices"`
	// KeyChanges hold a different pairing key afterwards.
	KeyChanges int `json:"key_changes"`
	// CounterRegressions moved a generator or verifier counter backwards.
	CounterRegressions int `json:"counter_regressions"`
	// LostOrReplayed acked more unlocks than their verifier counter
	// advanced: an acked session was lost, or a token was accepted twice
	// and only one acceptance reached the counter.
	LostOrReplayed int      `json:"lost_or_replayed"`
	Failures       []string `json:"-"`
}

// OK reports whether every rule held.
func (v Verdict) OK() bool { return len(v.Failures) == 0 }

// Add folds another drill step's verdict into v.
func (v *Verdict) Add(o Verdict) {
	v.LostDevices += o.LostDevices
	v.KeyChanges += o.KeyChanges
	v.CounterRegressions += o.CounterRegressions
	v.LostOrReplayed += o.LostOrReplayed
	v.Failures = append(v.Failures, o.Failures...)
}

// Problems summarizes the broken rules, one line each, for gate output.
func (v Verdict) Problems() []string {
	var out []string
	for _, p := range []struct {
		n    int
		what string
	}{
		{v.LostDevices, "devices lost"},
		{v.KeyChanges, "pairing keys changed"},
		{v.CounterRegressions, "HOTP counters regressed"},
		{v.LostOrReplayed, "devices acked more unlocks than their verifier counter advanced (lost ack or accepted replay)"},
	} {
		if p.n > 0 {
			out = append(out, fmt.Sprintf("%d %s", p.n, p.what))
		}
	}
	return out
}

// Oracle checks the HOTP safety contract of one drill. before is the
// durable state before the drill's load, acked the client-acknowledged
// unlocks per device, and after the final durable state (for a cluster,
// MaxState over the shards). Every device in before must still exist
// with the same pairing key and no counter lower, and every device's
// verifier counter must have advanced at least once per acked unlock:
// each acked unlock verified one fresh token, so fewer steps means an
// acked session was lost or a replay was accepted. The advance is
// measured from before, so a drill that starts from a non-zero counter
// is judged on its own traffic, and a regressed counter counts as no
// advance at all rather than wrapping around.
func Oracle(before store.State, acked map[int]int, after store.State) Verdict {
	var v Verdict
	for _, id := range sortedIDs(before.Devices) {
		b := before.Devices[id]
		a, ok := after.Devices[id]
		switch {
		case !ok:
			v.LostDevices++
			v.Failures = append(v.Failures, fmt.Sprintf("device %d lost", id))
			continue
		case !bytes.Equal(a.Key, b.Key):
			v.KeyChanges++
			v.Failures = append(v.Failures, fmt.Sprintf("device %d pairing key changed", id))
		}
		if a.GenCounter < b.GenCounter || a.VerCounter < b.VerCounter {
			v.CounterRegressions++
			v.Failures = append(v.Failures, fmt.Sprintf("device %d counters regressed gen %d->%d ver %d->%d",
				id, b.GenCounter, a.GenCounter, b.VerCounter, a.VerCounter))
		}
	}
	for _, id := range sortedIDs(acked) {
		from, to := before.Devices[id].VerCounter, after.Devices[id].VerCounter
		var delta uint64
		if to > from {
			delta = to - from
		}
		if n := acked[id]; n > 0 && uint64(n) > delta {
			v.LostOrReplayed++
			v.Failures = append(v.Failures, fmt.Sprintf("device %d acked %d unlocks but its verifier counter advanced %d", id, n, delta))
		}
	}
	return v
}

// MaxState reduces shard states to the cluster's durable state: per
// device, the record with the highest verifier counter (then generator
// counter). Only a device's owning shard advances it and a handoff ships
// monotone state, so the maximum is the authoritative copy; any other
// shard's record of the device is an older one.
func MaxState(states ...store.State) store.State {
	out := store.State{Devices: map[int]store.DeviceState{}}
	for _, st := range states {
		for id, d := range st.Devices {
			cur, ok := out.Devices[id]
			if !ok || d.VerCounter > cur.VerCounter ||
				(d.VerCounter == cur.VerCounter && d.GenCounter > cur.GenCounter) {
				out.Devices[id] = d
			}
		}
	}
	return out
}

func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
