package bench

import (
	"reflect"
	"testing"
)

// The worker-pool runner's contract is bit-exactness: distributing cells
// over OS threads must change wall-clock time and nothing else. These tests
// run each pool at four workers twice and diff it — results, digests,
// rendered tables, CSVs — against the same pool at one worker, which runs
// the cells in order on the test goroutine.

func TestParallelChaosMatchesSequential(t *testing.T) {
	const seed = 1
	seq := RunChaos(seed, 1)
	for run := 1; run <= 2; run++ {
		par := RunChaos(seed, 4)
		if len(par) != len(seq) {
			t.Fatalf("run %d: parallel produced %d cells, sequential %d", run, len(par), len(seq))
		}
		for i := range seq {
			if !reflect.DeepEqual(par[i], seq[i]) {
				t.Errorf("run %d: cell %d (%s/%s) diverged:\nsequential: %+v\nparallel:   %+v",
					run, i, seq[i].Scenario, seq[i].Plan, seq[i], par[i])
			}
		}
		if got, want := ChaosTable(par), ChaosTable(seq); got != want {
			t.Errorf("run %d: rendered chaos tables differ\nsequential:\n%s\nparallel:\n%s", run, want, got)
		}
	}
}

func TestParallelFiguresMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	const iters = 2
	all := []string{"fig3", "fig4", "fig5", "fig7", "fig8"}
	seq := RunFigures(all, iters, 1)
	for run := 1; run <= 2; run++ {
		par := RunFigures(all, iters, 4)
		if len(par) != len(seq) {
			t.Fatalf("run %d: got %d figures, want %d", run, len(par), len(seq))
		}
		for i := range seq {
			if par[i].ID != seq[i].ID {
				t.Fatalf("run %d: figure %d is %s, want %s (order must be fixed)", run, i, par[i].ID, seq[i].ID)
			}
			if got, want := par[i].CSV(), seq[i].CSV(); got != want {
				t.Errorf("run %d: %s CSV diverged under parallel run\nsequential:\n%s\nparallel:\n%s",
					run, seq[i].ID, want, got)
			}
		}
	}
	// A selection builds exactly the figures it names: -fig fig8
	// -parallel 4 must not sweep fig3-fig7, and -fig peak sweeps none.
	if one := RunFigures([]string{"fig8"}, iters, 4); len(one) != 1 || one[0].CSV() != seq[4].CSV() {
		t.Errorf("selecting fig8 returned %d figures, want fig8 alone", len(one))
	}
	if none := RunFigures([]string{"peak"}, iters, 4); len(none) != 0 {
		t.Errorf("selecting peak returned %d figures, want none", len(none))
	}
}
