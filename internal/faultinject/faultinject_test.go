package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestHitSchedule(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(SamplingRows, Spec{Every: 3, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	// Checks 1..7 with every=3, offset=1 fire at checks 2 and 5 ((n-1)%3==0
	// for n=checks-offset in {1,4}).
	var fired []int
	for i := 1; i <= 7; i++ {
		if err := r.Hit(SamplingRows); err != nil {
			fired = append(fired, i)
			var f *Fault
			if !errors.As(err, &f) || f.Point != SamplingRows {
				t.Fatalf("check %d: wrong error %v", i, err)
			}
		}
	}
	want := []int{2, 5}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if got := r.Fired(SamplingRows); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := r.Checks(SamplingRows); got != 7 {
		t.Fatalf("Checks = %d, want 7", got)
	}
}

func TestHitLimit(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(StorageScan, Spec{Every: 1, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 10; i++ {
		if r.Hit(StorageScan) != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("fired %d times, want 2 (limit)", n)
	}
}

func TestUnarmedIsFree(t *testing.T) {
	r := NewRegistry()
	if r.Enabled() {
		t.Fatal("fresh registry reports enabled")
	}
	if err := r.Hit(StorageScan); err != nil {
		t.Fatalf("unarmed hit returned %v", err)
	}
	// Arming one point must not make a different point fire.
	if err := r.Arm(StorageScan, Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Hit(SamplingRows); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestArmUnknownPoint(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Point("no.such.point"), Spec{}); err == nil {
		t.Fatal("expected error arming unknown point")
	}
}

func TestDisarmAndReset(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(StorageScan, Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Arm(SamplingRows, Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	if got := r.Armed(); len(got) != 2 {
		t.Fatalf("Armed = %v, want 2 points", got)
	}
	r.Disarm(StorageScan)
	if err := r.Hit(StorageScan); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if !r.Enabled() {
		t.Fatal("registry with one armed point reports disabled")
	}
	r.Reset()
	if r.Enabled() {
		t.Fatal("reset registry reports enabled")
	}
	if err := r.Hit(SamplingRows); err != nil {
		t.Fatalf("point fired after reset: %v", err)
	}
}

func TestCorruptIf(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(ArchiveSave, Spec{Every: 2}); err != nil {
		t.Fatal(err)
	}
	in := []byte("hello world payload")
	// First check fires (every=2, offset=0 → checks 1, 3, ...).
	out := r.CorruptIf(ArchiveSave, in)
	if string(out) == string(in) {
		t.Fatal("first check did not corrupt")
	}
	if string(in) != "hello world payload" {
		t.Fatal("input mutated in place")
	}
	if diff := countDiff(in, out); diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	// Second check must not fire.
	out2 := r.CorruptIf(ArchiveSave, in)
	if string(out2) != string(in) {
		t.Fatal("second check corrupted")
	}
}

func countDiff(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestSleepIf(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(MorselLatency, Spec{Every: 1, Latency: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r.SleepIf(MorselLatency)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("SleepIf slept %v, want >= ~5ms", elapsed)
	}
}

func TestScaleIf(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(EstimatorMisestimate, Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	// Fire ordinals alternate: first fire (n=1, odd) scales up, second
	// (n=2, even) scales down, with the default factor when Factor is unset.
	if got := r.ScaleIf(EstimatorMisestimate, 100); got != 100*DefaultMisestimateFactor {
		t.Fatalf("first fire = %v, want %v", got, 100*float64(DefaultMisestimateFactor))
	}
	if got := r.ScaleIf(EstimatorMisestimate, 100); got != 100.0/DefaultMisestimateFactor {
		t.Fatalf("second fire = %v, want %v", got, 100.0/DefaultMisestimateFactor)
	}
	if got := r.Fired(EstimatorMisestimate); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestScaleIfCustomFactorAndSchedule(t *testing.T) {
	r := NewRegistry()
	if err := r.ArmFromSpec("estimator.misestimate:every=2,factor=4"); err != nil {
		t.Fatal(err)
	}
	// every=2, offset=0 fires at checks 1, 3, ...; check 2 passes through.
	if got := r.ScaleIf(EstimatorMisestimate, 10); got != 40 {
		t.Fatalf("check 1 = %v, want 40", got)
	}
	if got := r.ScaleIf(EstimatorMisestimate, 10); got != 10 {
		t.Fatalf("check 2 = %v, want 10 (no fire)", got)
	}
	if got := r.ScaleIf(EstimatorMisestimate, 10); got != 2.5 {
		t.Fatalf("check 3 = %v, want 2.5", got)
	}
	if err := NewRegistry().ArmFromSpec("estimator.misestimate:factor=x"); err == nil {
		t.Fatal("bad factor: expected error")
	}
}

func TestScaleIfUnarmed(t *testing.T) {
	r := NewRegistry()
	if got := r.ScaleIf(EstimatorMisestimate, 42); got != 42 {
		t.Fatalf("unarmed ScaleIf = %v, want 42", got)
	}
}

func TestSeedSpecDeterministic(t *testing.T) {
	a := SeedSpec(99, 7)
	b := SeedSpec(99, 7)
	if a != b {
		t.Fatalf("SeedSpec not deterministic: %+v vs %+v", a, b)
	}
	if a.Offset < 0 || a.Offset >= 7 {
		t.Fatalf("offset %d out of range", a.Offset)
	}
	if SeedSpec(-99, 7).Offset < 0 {
		t.Fatal("negative seed produced negative offset")
	}
}

func TestArmFromSpec(t *testing.T) {
	r := NewRegistry()
	spec := "sampling.rows:every=3,offset=1,limit=4; executor.morsel.latency:every=2,latency=3ms"
	if err := r.ArmFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	armed := r.Armed()
	if len(armed) != 2 {
		t.Fatalf("armed %v, want 2 points", armed)
	}
	// Verify the parsed schedule by observing fires: every=3 offset=1 fires
	// first at check 2.
	if err := r.Hit(SamplingRows); err != nil {
		t.Fatalf("check 1 fired: %v", err)
	}
	if err := r.Hit(SamplingRows); err == nil {
		t.Fatal("check 2 did not fire")
	}
	if err := r.ArmFromSpec(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{
		"nope:every=1",            // unknown point
		"sampling.rows:every=x",   // bad int
		"sampling.rows:bogus=1",   // unknown key
		"sampling.rows:latency",   // malformed kv
		"sampling.rows:latency=q", // bad duration
	} {
		if err := NewRegistry().ArmFromSpec(bad); err == nil {
			t.Fatalf("spec %q: expected error", bad)
		}
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	if Enabled() {
		t.Fatal("default registry starts enabled")
	}
	if err := Arm(WorkerPanic, Spec{Every: 1, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if Hit(WorkerPanic) == nil {
		t.Fatal("armed default point did not fire")
	}
	if Fired(WorkerPanic) != 1 {
		t.Fatal("Fired != 1")
	}
	Disarm(WorkerPanic)
	if Enabled() {
		t.Fatal("default registry enabled after disarm")
	}
}
