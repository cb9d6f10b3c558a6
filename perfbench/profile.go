package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profileHz is the raised CPU sampling rate of the profiled repetition
// (the runtime default is 100 Hz).
const profileHz = 1000

// outDir is where the benchmark writes its profiles: beside its own
// binary, inside the checkout's build directory.
func outDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(filepath.Dir(exe), "perfbench-out")
	return dir, os.MkdirAll(dir, 0o755)
}

// startProfile starts the CPU profiler at profileHz, writing to path; the
// returned func stops it.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Set before StartCPUProfile, which then keeps this rate (and warns
	// on stderr that it could not set its own).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// profileShares runs one untraced repetition in a child under the CPU
// profiler and sets host.<module>_pct for every module, plus goswitch, gc
// and other, and host.mallocs.
func profileShares(w workload, seed uint64, ls *layerSet) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, w.name+".cpu.pprof")
	var r rep
	if err := spawn(w, seed, &r, "--child", "rep", "--cpuprofile", path); err != nil {
		return err
	}
	ls.set("host.mallocs", r.Mallocs)

	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := rollUp(string(out))
	if err != nil {
		return err
	}
	for _, m := range append(append([]string{}, profModules...), "goswitch", "gc", "other") {
		ls.set("host."+m+"_pct", shares[m])
	}
	return nil
}

// rollUp reads `go tool pprof -traces` output and returns the percentage
// of sampled CPU time charged to each module. A sample goes to the
// innermost frame that settles it: a frame in one of this repository's
// modules, a runtime GC or allocation frame (gc), or a runtime goroutine
// handoff frame (goswitch). Other runtime and library frames pass the
// sample on to their caller; a sample nothing settles is other.
func rollUp(traces string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	var stack []string
	var weight float64
	flush := func() {
		if weight > 0 {
			shares[chargeTo(stack)] += weight
			total += weight
		}
		stack, weight = stack[:0], 0
	}
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && weight == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample weight %q", fields[0])
			}
			weight = d.Seconds()
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for m, v := range shares {
		shares[m] = 100 * v / total
	}
	return shares, nil
}

// chargeTo picks the module a sample's stack (innermost first) is charged
// to.
func chargeTo(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "shrimp/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, m := range profModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		name, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			continue
		}
		if containsAny(name, gcFrames) {
			return "gc"
		}
		if containsAny(name, switchFrames) {
			return "goswitch"
		}
	}
	return "other"
}

// gcFrames and switchFrames are substrings of runtime function names that
// mark garbage collection or allocation, and goroutine handoff or
// scheduling.
var (
	gcFrames = []string{
		"malloc", "gc", "GC", "mark", "sweep", "scav", "scan", "newobject",
		"newarray", "growslice", "makeslice", "mheap", "mcache", "mcentral",
		"mspan", "wbBuf", "greyobject", "findObject", "heapBits", "bulkBarrier",
	}
	switchFrames = []string{
		"chan", "park", "ready", "schedule", "findRunnable", "mcall", "gosched",
		"Gosched", "casgstatus", "futex", "notesleep", "notewakeup", "stopm",
		"startm", "wakep", "runq", "execute", "selectgo", "lock2", "unlock2",
		"sema", "handoff", "goexit", "coro", "gogo", "usleep", "osyield",
		"stealWork", "acquirep", "releasep", "resetspinning", "syscall",
	}
)

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
