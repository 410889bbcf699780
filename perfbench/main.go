// Command perfbench is the repository benchmark. It runs one named
// workload in-process, checks the program's outputs, and prints every
// end-to-end metric — or, with --trace 1, every per-layer metric — as the
// last line of standard output, one JSON object:
//
//	bash perfbench/run.sh --workload analyze --seed 42 --seconds 20 --trace 0
//
// It runs from the repository root and writes only under .bench_build.
// The workloads and metrics are described in README.md and declared in
// BENCHMARK.json; layers.go maps each per-layer metric to the end-to-end
// metrics it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times a run performs its set-up; setup_s is
// their median, so one cold start does not move it.
const setupRuns = 3

// spanDir receives the traced runs' span logs.
const spanDir = ".bench_build"

// instance is one set-up workload.
type instance interface {
	// run drives the workload's closed loop until its operations have
	// taken d (at least one operation) and checks their outputs. On a
	// traced loop tr records spans and the loop measures its layers.
	run(d time.Duration, tr *tracer) (*loop, error)
	close()
}

type workload struct {
	name string
	// op names the user-visible operation the op_* metrics time.
	op string
	// tailAt is the highest percentile op_tail_ms reports. It is fixed
	// per workload so a faster program, with more samples, is not read
	// at a higher percentile than a slower one.
	tailAt float64
	setup  func(seed int64, b *spanBuf) (instance, error)
}

var workloads = []workload{
	{"sweep", "sweep", 0.99, func(seed int64, b *spanBuf) (instance, error) {
		return setupSweep(".", seed, b)
	}},
	{"analyze", "job", 0.90, func(seed int64, b *spanBuf) (instance, error) {
		return setupAnalyze(movieParams(seed), seed, b)
	}},
	// Two clients and their two server handlers keep both of a 2-vCPU
	// machine's cores busy, so the slowest percent of reads is whoever
	// waited out a scheduler time slice: one competing busy thread took
	// serve-read's p99 from 0.98 to 4.1 ms but its p95 only from 0.25 to
	// 0.27 ms, and p99 moved 23-27% between sets of runs of the same code.
	// The serve workloads report p95, a tail the program's own plan and
	// miss paths decide. Under writes the slowest reads also queue behind
	// PUT decodes and a collection every few milliseconds.
	{"serve-read", "read", 0.95, func(seed int64, b *spanBuf) (instance, error) {
		return setupServe(movieParams(seed), seed, false, b)
	}},
	{"serve-mixed", "read", 0.95, func(seed int64, b *spanBuf) (instance, error) {
		return setupServe(movieParams(seed), seed, true, b)
	}},
}

// loop is the outcome of one timed loop.
type loop struct {
	ops       []float64     // each operation's latency, ms
	busy      time.Duration // time the operations took, the 1/s base
	attempted int           // operations attempted, writes and scrapes included
	failed    int           // failed or wrong
	failures  []string      // the first few failures
	writes    []float64     // client-side write latencies, ms
	// layer holds per-layer metrics a traced loop measures itself.
	layer   map[string]float64
	allocMB float64
	gcs     uint32
	peakMB  float64 // peak live heap while the loop ran
}

const keepFailures = 5

func (l *loop) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < keepFailures {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds another client's outcome into l.
func (l *loop) merge(o *loop) {
	l.ops = append(l.ops, o.ops...)
	l.writes = append(l.writes, o.writes...)
	l.attempted += o.attempted
	l.failed += o.failed
	for _, f := range o.failures {
		if len(l.failures) < keepFailures {
			l.failures = append(l.failures, f)
		}
	}
}

// measure runs one loop from a collected heap and records its memory:
// what it allocated, how often it collected, and the peak live heap.
func measure(in instance, d time.Duration, tr *tracer) (*loop, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler(10 * time.Millisecond)
	l, err := in.run(d, tr)
	peak := heap.finish()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	l.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	l.gcs = m1.NumGC - m0.NumGC
	l.peakMB = peak
	return l, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: sweep, analyze, serve-read or serve-mixed")
	seed := flags.Int64("seed", goldenSeed, "workload seed; 42 reproduces the goldens")
	seconds := flags.Int("seconds", 20, "operation time each timed loop runs for")
	traced := flags.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload sweep|analyze|serve-read|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit("."), sourceDigest("."))
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)

	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(w *workload, seed int64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setupBuf := tr.buf()
	var in instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(seed, setupBuf); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()

	base, err := measure(in, d, nil)
	if err != nil {
		return nil, err
	}
	loops := []*loop{base}
	var tl *loop
	if traced {
		if tl, err = measure(in, d, tr); err != nil {
			return nil, err
		}
		loops = append(loops, tl)
	}

	res := &result{Metrics: map[string]value{}}
	for _, l := range loops {
		res.Attempted += l.attempted
		res.Failed += l.failed
		for _, f := range l.failures {
			fmt.Fprintf(out, "FAIL %s\n", f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	sorted := sortedCopy(base.ops)
	q, tailV, ok := tail(sorted, w.tailAt)
	tailName := fmt.Sprintf("p%g", 100*q)
	if !ok {
		tailName = "max"
	}
	opsPerS := ratio(float64(len(base.ops)), base.busy.Seconds())
	fmt.Fprintf(out, "%s: n=%d %s_per_s=%.4g %s_p50_ms=%.4g %s_%s_ms=%.4g (%d beyond) setup_s=%.4g (%d set-ups) peak_heap_mb=%.4g error_ratio=%d/%d\n",
		w.name, len(sorted), w.op, opsPerS, w.op, quantile(sorted, 0.5), w.op, tailName, tailV,
		beyond(len(sorted), q), median(setups), len(setups), base.peakMB, res.Failed, res.Attempted)
	fmt.Fprintf(out, "%s: %s latency ms p75=%.4g p90=%.4g p95=%.4g p99=%.4g max=%.4g\n", w.name, w.op,
		quantile(sorted, 0.75), quantile(sorted, 0.90), quantile(sorted, 0.95), quantile(sorted, 0.99), quantile(sorted, 1))
	if len(base.writes) > 0 {
		ws := sortedCopy(base.writes)
		wq, wv, _ := tail(ws, 0.99)
		fmt.Fprintf(out, "%s: writes n=%d write_p50_ms=%.4g write_p%g_ms=%.4g\n", w.name, len(ws), quantile(ws, 0.5), 100*wq, wv)
	}

	if !traced {
		e2e := map[string]float64{
			"setup_s":      median(setups),
			"ops_per_s":    opsPerS,
			"op_p50_ms":    quantile(sorted, 0.5),
			"op_tail_ms":   tailV,
			"peak_heap_mb": base.peakMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
		return res, nil
	}

	aggs := tr.aggregate()
	printSelfTimes(out, aggs)
	if path, n, err := writeSpanLog(tr, w.name); err != nil {
		fmt.Fprintf(out, "spans: not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans: %d written to %s\n", n, path)
	}
	vals := layerValues(aggs, base, tl)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
		fmt.Fprintf(out, "layer %-30s %14.6g %-6s -> %s\n", m.name, vals[m.name], m.unit, m.moves)
	}
	return res, nil
}

// writeSpanLog writes the run's spans, one JSON object a line.
func writeSpanLog(tr *tracer, workload string) (string, int, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(spanDir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	n, err := tr.writeSpans(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, n, err
}

// commit reads the checked-out commit from root's .git, if there is one.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources under root, so a result
// names the code it measured even where there is no git history.
func sourceDigest(root string) string {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(blob))
		h.Write(blob)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("fnv64:%016x", h.Sum64())
}
