package bench

import (
	"os"
	"testing"
)

// TestChaosTableGolden pins the seed-1 chaos matrix — every cell's verdict,
// fault count and replay digest — to a checked-in table, so any change to
// the simulated schedule, or to the digest fold, is a visible diff of
// testdata/chaos_seed1.golden rather than a hand comparison of printed
// digests. A deliberate change regenerates the file from the table this
// test prints on failure (the same table `shrimpbench -faults` prints).
func TestChaosTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos matrix")
	}
	want, err := os.ReadFile("testdata/chaos_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := ChaosTable(RunChaos(1, 0)); got != string(want) {
		t.Fatalf("chaos table differs from testdata/chaos_seed1.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
