package app

import "testing"

// TestLatencyUntracedAllocatesNothing: recording a served op with no
// collector attached touches only the recorder's own histogram.
func TestLatencyUntracedAllocatesNothing(t *testing.T) {
	r := NewRecorder(4, nil)
	allocs := testing.AllocsPerRun(1000, func() { r.Latency(ClassGetSrv, 12345) })
	if allocs != 0 {
		t.Fatalf("Latency with a nil collector: %v allocs per op, want 0", allocs)
	}
	if got := r.Lat[ClassGetSrv].Quantile(0.5); got == 0 {
		t.Fatal("observation not recorded")
	}
}
