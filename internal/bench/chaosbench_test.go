package bench

import (
	"runtime"
	"testing"
)

// One chaos cell end to end: build a 4-node cluster under the drop-1% plan
// with the reliability sublayer on, run the fig3 representative scenario
// twice under the replay digest, tear it all down. This is the unit the
// soak matrix (and its worker pool) repeats 33 times.
func BenchmarkChaosCell(b *testing.B) {
	plan := StandardChaosPlans()[1] // drop-1%
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := chaosCell{"fig3", plan, true, scenarioRunner("fig3")}.check(1)
		if !res.OK() {
			b.Fatalf("chaos cell failed: %+v", res)
		}
	}
}

func BenchmarkChaosSoak(b *testing.B) {
	// The full sequential matrix; compare against BenchmarkChaosSoakParallel
	// for the worker-pool effect on multi-core hosts.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ChaosOK(RunChaos(1, 1)) {
			b.Fatal("chaos soak failed")
		}
	}
}

func BenchmarkChaosSoakParallel(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ChaosOK(RunChaos(1, runtime.GOMAXPROCS(0))) {
			b.Fatal("chaos soak failed")
		}
	}
}
