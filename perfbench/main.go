// Command perfbench is the repository benchmark: one command that runs a
// named workload at a given seed, checks the simulator's outputs, and prints
// every metric by name with its unit.
//
//	perfbench --workload figures|serve|collectives --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload (tracing off) until S host seconds
// have passed, at least minReps times, cycling through inputsPerRun seeded
// inputs, and reports the end-to-end metrics: host cost as medians over the
// repetitions, exact virtual-time results as medians over the inputs.
// With --trace 1 it reports the per-layer metrics instead: layer probes,
// traced passes with the trace.Collector attached, and one CPU-profiled
// repetition rolled up by module.
//
// Every repetition and traced pass runs in a fresh child process of this
// binary, so one repetition's heap, goroutines and peak RSS never carry
// into the next.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed correctness check prints correct=false and exits 1; a run that
// cannot execute at all exits 2 without a result. --list prints the metric
// catalogue, including which end-to-end metric each per-layer metric should
// move and on which workload, as JSON.
//
// The benchmark stays outside the program: it calls each layer's public
// functions, times those calls, and reads their public counters.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// inputsPerRun is how many seeded inputs one run measures: repetition i
// runs input i mod inputsPerRun, derived from --seed. Virtual-time results
// are medians over the inputs, so one input's luck near the serving knee
// does not set them.
const inputsPerRun = 10

// minReps is the fewest repetitions a measured run makes: every input once
// and the first input again, so at least one input is checked to replay
// exactly; longer runs cycle on and check every input they repeat.
const minReps = inputsPerRun + 1

// inputSeed derives the seed of input k from the run's seed.
func inputSeed(seed uint64, k int) uint64 {
	return splitmix64(seed ^ uint64(k)<<48)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one exact virtual-time result, listed in a fixed order.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// rep is what one repetition of a workload measured; a child process
// prints it as JSON.
type rep struct {
	Setup   float64 `json:"setup_s"`     // host seconds to the first measured op
	Run     float64 `json:"run_s"`       // host seconds of the measured run
	AllocMB float64 `json:"alloc_mb"`    // MB allocated in set-up and run
	Mallocs float64 `json:"mallocs"`     // heap allocations in set-up and run
	PeakRSS float64 `json:"peak_rss_mb"` // the child process's peak RSS

	// Virtual-time results, exact: every repetition of one invocation
	// must reproduce them bit for bit.
	LatP50  float64 `json:"lat_p50_us"`  // virtual µs over the workload's ops
	LatTail float64 `json:"lat_tail_us"` // at percentile TailQ
	TailQ   float64 `json:"tail_q"`
	Samples int64   `json:"samples"` // ops the latency quantiles cover
	Virt    []named `json:"virt"`    // the workload's own named results
	Digest  uint64  `json:"digest"`  // replay digest, or a hash of the results

	Attempted int64    `json:"attempted"` // ops or checks
	Failed    int64    `json:"failed"`
	Errs      []string `json:"errs"` // failed correctness checks
}

// sameVirtual reports whether two repetitions produced identical
// virtual-time results.
func (r rep) sameVirtual(o rep) bool {
	if r.Digest != o.Digest || r.LatP50 != o.LatP50 || r.LatTail != o.LatTail ||
		r.Samples != o.Samples || len(r.Virt) != len(o.Virt) {
		return false
	}
	for i := range r.Virt {
		if r.Virt[i] != o.Virt[i] {
			return false
		}
	}
	return true
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// rep runs one untraced repetition.
	rep func(seed uint64) (rep, error)
	// layers runs one traced pass and fills the per-layer set.
	layers func(seed uint64, ls *layerSet) error
}

func workloads() []workload {
	return []workload{
		{name: "figures", why: figuresWhy, rep: figuresRep, layers: figuresLayers},
		{name: "serve", why: serveWhy, rep: serveRep, layers: serveLayers},
		{name: "collectives", why: collectivesWhy, rep: collectivesRep, layers: collectivesLayers},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: figures, serve or collectives")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics from traced passes")
	list := flag.Bool("list", false, "print the metric catalogue as JSON and exit")
	child := flag.String("child", "", "internal: run one repetition (rep) or traced pass (layers) and print it")
	cpuprofile := flag.String("cpuprofile", "", "internal: with -child rep, write a CPU profile of the repetition")
	flag.Parse()
	// Every workload runs one single-threaded engine: measure it on one P,
	// so goroutine handoffs stay on one thread and GC time lands in run_s.
	hostProcs := runtime.GOMAXPROCS(1)

	if *list {
		printCatalogue()
		return
	}
	var w *workload
	for _, cand := range workloads() {
		if cand.name == *name {
			c := cand
			w = &c
		}
	}
	if w == nil {
		fail("unknown workload %q (figures, serve, collectives)", *name)
	}
	if *seed == 0 {
		fail("--seed must be nonzero")
	}
	if *child != "" {
		runChild(*w, *seed, *child, *cpuprofile)
		return
	}

	printHost(hostProcs)
	var res result
	var err error
	if *traced != 0 {
		res, err = runLayers(*w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(*w, *seed, *seconds)
	}
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runChild is the child side: one repetition or one traced pass, printed
// as one JSON line.
func runChild(w workload, seed uint64, mode, cpuprofile string) {
	var out any
	switch mode {
	case "rep":
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		stop := func() {}
		if cpuprofile != "" {
			var err error
			if stop, err = startProfile(cpuprofile); err != nil {
				fail("%v", err)
			}
		}
		r, err := w.rep(seed)
		stop()
		if err != nil {
			fail("%s: %v", w.name, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.AllocMB = float64(after.TotalAlloc-ms.TotalAlloc) / (1 << 20)
		r.Mallocs = float64(after.Mallocs - ms.Mallocs)
		r.PeakRSS = peakRSSMB()
		out = r
	case "layers":
		goroutines := runtime.NumGoroutine()
		ls := newLayerSet()
		var errs []string
		if err := w.layers(seed, ls); err != nil {
			errs = append(errs, err.Error())
		}
		ls.set("host.goroutines_left", float64(runtime.NumGoroutine()-goroutines))
		out = layerPass{Values: ls.vals, Errs: errs}
	default:
		fail("unknown child mode %q", mode)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(b))
}

// spawn runs this binary as a child on the workload and decodes the JSON
// line it prints into v. The child's stderr passes through.
func spawn(w workload, seed uint64, v any, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10)}, extra...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", extra, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	return json.Unmarshal(lines[len(lines)-1], v)
}

// runEndToEnd repeats the workload untraced for the measurement window and
// reduces the repetitions to the end-to-end metrics.
func runEndToEnd(w workload, seed uint64, seconds float64) (result, error) {
	var reps []rep
	start := hostNow()
	for len(reps) < minReps || hostSince(start) < seconds {
		in := inputSeed(seed, len(reps)%inputsPerRun)
		var r rep
		if err := spawn(w, in, &r, "--child", "rep"); err != nil {
			return result{}, err
		}
		reps = append(reps, r)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var setups, runs, allocs, rss []float64
	for i, r := range reps {
		setups = append(setups, r.Setup)
		runs = append(runs, r.Run)
		allocs = append(allocs, r.AllocMB)
		rss = append(rss, r.PeakRSS)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, e := range r.Errs {
			res.Correct = false
			fmt.Printf("FAIL rep %d: %s\n", i, e)
		}
		// Every repetition of an input must replay its first exactly.
		if first := reps[i%inputsPerRun]; i >= inputsPerRun {
			res.Attempted++
			if !r.sameVirtual(first) {
				res.Correct = false
				res.Failed++
				fmt.Printf("FAIL rep %d: virtual-time results differ from rep %d (digest %#016x vs %#016x)\n",
					i, i%inputsPerRun, r.Digest, first.Digest)
			}
		}
	}

	var p50s, tails []float64
	for _, r := range reps[:inputsPerRun] {
		p50s = append(p50s, r.LatP50)
		tails = append(tails, r.LatTail)
	}
	vals := map[string]float64{
		"setup_s":      median(setups),
		"run_s":        median(runs),
		"alloc_mb":     median(allocs),
		"peak_rss_mb":  median(rss),
		"ok_frac":      float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"vlat_p50_us":  median(p50s),
		"vlat_tail_us": median(tails),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
	}

	fmt.Printf("workload %s: %d reps over %d inputs, run_s %s, setup_s %s\n",
		w.name, len(reps), inputsPerRun, fmtList(runs), fmtList(setups))
	for k, r := range reps[:inputsPerRun] {
		fmt.Printf("input %d: %d ops, p50 %.3f us, p%g %.3f us, digest %#016x\n",
			k, r.Samples, r.LatP50, r.TailQ*100, r.LatTail, r.Digest)
	}
	for i, v := range reps[0].Virt {
		var xs []float64
		for _, r := range reps[:inputsPerRun] {
			xs = append(xs, r.Virt[i].Value)
		}
		fmt.Printf("virtual: %-18s %.4f (median over inputs)\n", v.Name, median(xs))
	}
	return res, nil
}

// printHost records the host beside every result; nothing is normalized
// by it.
func printHost(hostProcs int) {
	rec := struct {
		GoMaxProcs     int     `json:"gomaxprocs"`
		HostGoMaxProcs int     `json:"host_gomaxprocs"`
		NProc          int     `json:"nproc"`
		GoVersion      string  `json:"go"`
		CalibMS        float64 `json:"calib_ms"`
	}{runtime.GOMAXPROCS(0), hostProcs, runtime.NumCPU(), runtime.Version(), calibrate() * 1e3}
	b, _ := json.Marshal(rec)
	fmt.Printf("host %s\n", b)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (median of five) so results from
// different hosts can be compared by hand; it is recorded, not applied.
func calibrate() float64 {
	var times []float64
	for k := 0; k < 5; k++ {
		t := hostNow()
		x := uint64(k + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, hostSince(t))
	}
	return median(times)
}

// hostNow reads the host clock. The benchmark measures the simulator
// itself, so its timing reads are host time by design; virtual time never
// flows from here into a simulation.
func hostNow() time.Time {
	//lint:allow no-wallclock the benchmark times the simulator on the host
	return time.Now()
}

// hostSince returns host seconds elapsed since t.
func hostSince(t time.Time) float64 {
	//lint:allow no-wallclock the benchmark times the simulator on the host
	return time.Since(t).Seconds()
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out + "]"
}

// quantiles returns the median and the highest of p99/p90 that leaves at
// least ten samples beyond it (the maximum when even p90 does not), with
// the percentile chosen. Values are virtual nanoseconds; results are µs.
func quantiles(ns []int64) (p50, tail, q float64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) float64 {
		i := int(q*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return float64(s[i]) / 1e3
	}
	q = 1
	for _, cand := range []float64{0.99, 0.9} {
		if float64(len(s))*(1-cand) >= 10 {
			q = cand
			break
		}
	}
	return at(0.5), at(q), q
}

// splitmix64 is the benchmark's seeded input generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv folds 64-bit words into an FNV-1a hash, for fingerprinting results
// that carry no engine digest.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(byte(v >> (8 * i)))
		*h *= 1099511628211
	}
}
