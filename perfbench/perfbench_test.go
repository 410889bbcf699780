package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"datanet/internal/apps"
	"datanet/internal/elasticmap"
	"datanet/internal/experiments"
)

// smallParams is a movie log small enough for unit tests.
func smallParams(seed int64) experiments.MovieParams {
	return experiments.MovieParams{
		Nodes: 8, Racks: 2, Blocks: 16, BlockBytes: 64 << 10, Movies: 50,
		Alpha: elasticmap.DefaultAlpha, Seed: seed,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkJSON pins the metric tables to BENCHMARK.json:
// the same workloads and metrics, legal names and units, each name once.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %q), want %q with a one-line why", i, w.Name, w.Why, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, want metric) {
		t.Helper()
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %d: bad or repeated name %q / unit %q", kind, i, name, unit)
		}
		seen[name] = true
		if name != want.name || unit != want.unit || better != want.better {
			t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the benchmark reports %s [%s, %s]",
				kind, i, name, unit, better, want.name, want.unit, want.better)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark reports %d+%d",
			len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bench.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bench.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
		if perLayer[i].moves == "" {
			t.Errorf("%s: no end-to-end metric named for it to move", m.Name)
		}
	}
}

func TestTailRefusesUndersampledP99(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		upTo   float64
		wantQ  float64
		wantOK bool
	}{
		{1000, 0.99, 0.99, true}, // exactly ten beyond p99
		{999, 0.99, 0.95, true},  // nine beyond p99: refused
		{199, 0.99, 0.90, true},  // nine beyond p95: refused
		{100000, 0.90, 0.90, true},
		{10, 0.99, 1, false}, // no percentile has ten beyond
	} {
		q, v, ok := tail(samples(tc.n), tc.upTo)
		if q != tc.wantQ || ok != tc.wantOK {
			t.Errorf("tail(%d samples, up to p%g) = p%g ok=%v, want p%g ok=%v", tc.n, 100*tc.upTo, 100*q, ok, 100*tc.wantQ, tc.wantOK)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("tail(%d samples) reported p%g with %d beyond", tc.n, 100*q, beyond(tc.n, q))
		}
		if !ok && v != float64(tc.n) {
			t.Errorf("under-sampled tail of %d samples = %v, want the maximum", tc.n, v)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},    // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},   // runs past its parent
		{Name: "d", Parent: 1, Start: 12, End: 14},    // a's child
		{Name: "e", Parent: -1, Start: 200, End: 210}, // another root
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 18, 30, 30, 2, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanLogRenumbersParents(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 2; i++ {
		b := tr.buf()
		root := b.begin("root", int64(i), -1)
		b.end(b.begin("child", int64(i), root), 1, 0)
		b.end(root, 0, 0)
	}
	var sb strings.Builder
	n, err := tr.writeSpans(&sb)
	if err != nil || n != 4 {
		t.Fatalf("wrote %d spans, err %v", n, err)
	}
	var parents []int
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		parents = append(parents, s.Parent)
	}
	if want := []int{-1, 0, -1, 2}; !equalInts(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	if a := tr.aggregate()["child"]; a == nil || a.count != 2 || a.n != 2 {
		t.Errorf("aggregate of child spans = %+v", a)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSweepCheckCatchesCorruption(t *testing.T) {
	p := smallParams(3)
	pl, err := experiments.PlacementSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	fault := p
	fault.Nodes, fault.Blocks = 16, 16
	st, err := experiments.StragglerSweep([]int{16}, fault)
	if err != nil {
		t.Fatal(err)
	}
	golden := "header\n" + pl.String() + "\n" + st.String() + "\n"
	if errs := checkSweep(pl, st, golden); len(errs) != 0 {
		t.Fatalf("clean sweep failed its check: %v", errs)
	}
	if errs := checkSweep(pl, st, strings.Replace(golden, "ok", "OK", 1)); len(errs) != 1 {
		t.Errorf("edited straggler golden: %d errors, want 1", len(errs))
	}
	st.Rows[0].OutputOK = false
	pl.Workloads[0].Arms[0].Makespan = math.NaN()
	errs := checkSweep(pl, st, "")
	if len(errs) != 2 {
		t.Fatalf("corrupted sweep: %d errors, want one per section: %v", len(errs), errs)
	}
}

func TestAnalyzeCheckCatchesCorruption(t *testing.T) {
	inst, err := setupAnalyze(smallParams(5), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := inst.(*analyzeInst)
	l, err := a.run(time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 || l.attempted != deckStrata*len(a.apps) {
		t.Fatalf("clean deck: %d of %d jobs failed: %v", l.failed, l.attempted, l.failures)
	}
	app := apps.WordCount{}
	res, err := analysisJob(a.ds, targetSub, app, true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.check(targetSub, app, res.Output); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	for k, v := range res.Output {
		res.Output[k] = v + "0"
		break
	}
	if err := a.check(targetSub, app, res.Output); err == nil {
		t.Error("corrupted output passed the check")
	}
}

func TestServeCheckCatchesCorruption(t *testing.T) {
	inst, err := setupServe(smallParams(7), 7, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*serveInst)
	defer in.close()
	l, err := in.run(300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 || len(l.ops) == 0 {
		t.Fatalf("clean loop: %d of %d requests failed: %v", l.failed, l.attempted, l.failures)
	}

	total, hashed, bloomed := in.baseArr[1].EstimateDetailed(targetSub)
	good := estimateReply{Epoch: 1, Sub: targetSub, Estimate: total, HashedBlocks: hashed, BloomedBlocks: bloomed}
	if errs := in.check([]estimateObs{{1, good}}, nil); len(errs) != 0 {
		t.Fatalf("correct estimate rejected: %v", errs)
	}
	bad := good
	bad.Estimate++
	if errs := in.check([]estimateObs{{1, bad}}, nil); len(errs) != 1 {
		t.Errorf("corrupted estimate: %d errors, want 1", len(errs))
	}
	blocks := in.baseArr[0].Len() + in.moreArr[0].Len()
	if errs := in.check(nil, []writeObs{{array: 0, epoch: 2, blocks: blocks, payload: 0}}); len(errs) != 0 {
		t.Fatalf("correct append rejected: %v", errs)
	}
	if errs := in.check(nil, []writeObs{{array: 0, epoch: 2, blocks: blocks + 1, payload: 0}}); len(errs) != 1 {
		t.Errorf("wrong block count: %d errors, want 1", len(errs))
	}
	if errs := in.check(nil, []writeObs{{array: 0, epoch: 3, blocks: blocks, payload: 0}}); len(errs) != 1 {
		t.Errorf("skipped epoch: %d errors, want 1", len(errs))
	}
	if validReply(500, []byte(`{"error":"x"}`)) == nil || validReply(200, []byte(`{"epoch":`)) == nil {
		t.Error("a failed status or a truncated body passed as valid")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut strings.Builder
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "analyze", "--seconds", "0"},
		{"--workload", "analyze", "--trace", "2"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad arguments printed a result: %q", out.String())
	}
}
