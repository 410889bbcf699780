package datanet_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`); EXPERIMENTS.md records
// the paper-vs-measured comparison. Micro-benchmarks cover the primitives
// whose costs the paper argues about: single-scan meta-data construction
// (O(records)), Bloom filter operations, the distribution-aware scheduler,
// and the max-flow assignment.

import (
	"fmt"
	"sync"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/bloom"
	"datanet/internal/elasticmap"
	"datanet/internal/experiments"
	"datanet/internal/gen"
	"datanet/internal/graph"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/stats"
)

// Shared environments, built once: benches measure the experiment
// computation, not dataset generation.
var (
	movieEnvOnce sync.Once
	movieEnv     *experiments.Env
	movieEnvErr  error
)

func sharedMovieEnv(b *testing.B) *experiments.Env {
	movieEnvOnce.Do(func() {
		movieEnv, movieEnvErr = experiments.NewMovieEnv(experiments.DefaultMovieParams())
	})
	if movieEnvErr != nil {
		b.Fatal(movieEnvErr)
	}
	return movieEnv
}

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure.

// BenchmarkFig1 regenerates Figure 1: a sub-dataset's distribution over
// HDFS blocks and the imbalanced per-node workload under locality
// scheduling (32 nodes, 128 blocks).
func BenchmarkFig1(b *testing.B) {
	p := experiments.DefaultMovieParams()
	p.Blocks = 128
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(p)
		if err != nil {
			b.Fatal(err)
		}
		if r.Top30Share < 0.4 {
			b.Fatalf("clustering lost: %g", r.Top30Share)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: the analytic imbalance probabilities
// for Γ(k=1.2, θ=7), n=512, across cluster sizes.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(stats.Gamma{}, 0, nil)
		if r.At128AboveDouble < 3 || r.At128AboveDouble > 5 {
			b.Fatalf("E[#nodes>2E] = %g", r.At128AboveDouble)
		}
	}
}

// BenchmarkTable1 regenerates Table I: per-movie sizes within one block.
func BenchmarkTable1(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: the four analysis jobs with/without
// DataNet (paper improvements 20/39.1/40.6/42 %).
func BenchmarkFig5(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(env)
		if err != nil {
			b.Fatal(err)
		}
		if c := r.Comparison("TopKSearch"); c == nil || c.Improvement < 0.2 {
			b.Fatalf("TopK improvement lost: %+v", c)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: map execution times on the filtered
// sub-dataset.
func BenchmarkFig6(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: shuffle-phase times (paper: 4–5×
// faster with DataNet).
func BenchmarkFig7(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.Speedup("TopKSearch") < 1.5 {
			b.Fatalf("shuffle speedup lost: %g", r.Speedup("TopKSearch"))
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: the GitHub IssueEvent experiment.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.EventParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II: ElasticMap accuracy and
// representation ratio across α.
func BenchmarkTable2(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].Accuracy <= r.Rows[len(r.Rows)-1].Accuracy {
			b.Fatal("accuracy trend lost")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: per-sub-dataset estimate accuracy.
func BenchmarkFig9(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(env, 50)
		if err != nil {
			b.Fatal(err)
		}
		if r.LargeRelErr > r.SmallRelErr {
			b.Fatal("accuracy-by-size trend lost")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: workload balance vs α.
func BenchmarkFig10(b *testing.B) {
	env := sharedMovieEnv(b)
	alphas := []float64{0.15, 0.3, 0.6, 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(env, alphas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigration regenerates the §V-A.4 reactive-rebalance comparison.
func BenchmarkMigration(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Migration(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.Plan.Fraction() <= r.DataNetPlan.Fraction() {
			b.Fatal("migration advantage lost")
		}
	}
}

// BenchmarkAblationBuckets compares bucket-bound shapes (DESIGN.md §5).
func BenchmarkAblationBuckets(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BucketAblation(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedulers compares the scheduler family.
func BenchmarkAblationSchedulers(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SchedulerAblation(env); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks.

var benchRecords = func() []records.Record {
	return gen.Movies(gen.MovieConfig{Movies: 500, Reviews: 20000, Seed: 1})
}()

// BenchmarkElasticMapBuild measures the single-scan meta-data construction
// rate (the paper's O(records) claim); reported as bytes/op processed.
func BenchmarkElasticMapBuild(b *testing.B) {
	var raw int64
	for _, r := range benchRecords {
		raw += r.Size()
	}
	b.SetBytes(raw)
	opts := elasticmap.Options{Alpha: 0.3, BucketBounds: elasticmap.ScaledFibonacciBounds(1 << 20)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta := elasticmap.BuildBlockMeta(benchRecords, opts)
		if meta.NumSubs() == 0 {
			b.Fatal("empty meta")
		}
	}
}

// BenchmarkSeparatorObserve measures the per-record bucket accounting.
func BenchmarkSeparatorObserve(b *testing.B) {
	sep := elasticmap.NewSeparator(nil)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("movie-%05d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sep.Observe(keys[i&255], 300)
	}
}

// BenchmarkBloom measures filter Add+Test throughput.
func BenchmarkBloom(b *testing.B) {
	filter := bloom.NewWithEstimates(100000, 0.01)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		filter.Add(k)
		if !filter.Test(k) {
			b.Fatal("false negative")
		}
	}
}

// BenchmarkSchedulerDataNet measures Algorithm 1 assignment over a
// 256-block, 32-node instance.
func BenchmarkSchedulerDataNet(b *testing.B) {
	env := sharedMovieEnv(b)
	weights := env.EstimatedWeights(env.Target)
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]sched.Task, len(blocks))
	for i, blk := range blocks {
		tasks[i] = sched.Task{
			Block: blk.ID, Index: i, Weight: weights[i], Bytes: blk.Bytes,
			Locations: env.FS.Locations(blk.ID),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sched.NewDataNetPicker(tasks, env.Topo)
		for {
			if _, ok := p.Next(0); !ok {
				break
			}
		}
	}
}

// BenchmarkMaxFlowAssignment measures the Ford–Fulkerson balanced
// assignment (paper §IV-B).
func BenchmarkMaxFlowAssignment(b *testing.B) {
	env := sharedMovieEnv(b)
	weights := env.EstimatedWeights(env.Target)
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([][]int, len(blocks))
	for i, blk := range blocks {
		for _, n := range env.FS.Locations(blk.ID) {
			locs[i] = append(locs[i], int(n))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.NewBipartite(env.Topo.N(), weights, locs)
		assign := graph.BalancedAssignment(g)
		if len(assign) != env.Topo.N() {
			b.Fatal("bad assignment")
		}
	}
}

// BenchmarkEngineRun measures one full simulated job (filter + analysis +
// shuffle + reduce) under DataNet scheduling.
func BenchmarkEngineRun(b *testing.B) {
	env := sharedMovieEnv(b)
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunDataNet(app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetaCodec measures ElasticMap serialization round-trips.
func BenchmarkMetaCodec(b *testing.B) {
	env := sharedMovieEnv(b)
	data, err := elasticmap.Encode(env.Array)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := elasticmap.Encode(env.Array)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := elasticmap.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGammaCDF measures the regularized incomplete gamma evaluation
// that powers Figure 2.
func BenchmarkGammaCDF(b *testing.B) {
	g := stats.Gamma{K: 4.8, Theta: 7}
	for i := 0; i < b.N; i++ {
		x := float64(i%100) + 0.5
		if v := g.CDF(x); v < 0 || v > 1 {
			b.Fatal("out of range")
		}
	}
}

// ---------------------------------------------------------------------------
// Extension-experiment benchmarks (DESIGN.md §5–6).

// BenchmarkTheoryValidation regenerates the §II-B end-to-end validation
// (analytic vs simulated extreme-node counts, Gamma parameter recovery).
func BenchmarkTheoryValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Theory(stats.Gamma{}, 128, 32, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !r.FitMLE.Valid() {
			b.Fatal("fit failed")
		}
	}
}

// BenchmarkClusterSweep regenerates the imbalance-vs-cluster-size sweep.
func BenchmarkClusterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClusterSweep([]int{8, 16, 32}, experiments.MovieParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeterogeneity regenerates the capacity-aware comparison.
func BenchmarkHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Heterogeneity(experiments.MovieParams{})
		if err != nil {
			b.Fatal(err)
		}
		if r.CapacityStall >= r.UniformStall {
			b.Fatal("capacity-aware advantage lost")
		}
	}
}

// BenchmarkReactive regenerates the proactive-vs-reactive comparison.
func BenchmarkReactive(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Reactive(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIOSaving regenerates the §V-B block-skipping table.
func BenchmarkIOSaving(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IOSaving(env, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElasticMapBuildParallel measures the concurrent construction
// path against the same corpus as BenchmarkElasticMapBuild.
func BenchmarkElasticMapBuildParallel(b *testing.B) {
	env := sharedMovieEnv(b)
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		b.Fatal(err)
	}
	perBlock := make([][]records.Record, len(blocks))
	var raw int64
	for i, blk := range blocks {
		perBlock[i] = blk.Records
		raw += blk.Bytes
	}
	b.SetBytes(raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := elasticmap.BuildParallel(perBlock, env.Opts, 0)
		if arr.Len() != len(blocks) {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkSelectivity regenerates the benefit-vs-popularity sweep.
func BenchmarkSelectivity(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Selectivity(env, []int{0, 10, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebLog regenerates the WorldCup'98-style web-log experiment.
func BenchmarkWebLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WebLog(experiments.WebLogParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement regenerates the replica-placement comparison.
func BenchmarkPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Placement(experiments.MovieParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelCheck regenerates the Eq.-5 validation including the
// genuine 64 MiB block.
func BenchmarkModelCheck(b *testing.B) {
	env := sharedMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ModelCheck(env, []float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].RelErr > 0.05 {
			b.Fatal("Eq.5 model diverged")
		}
	}
}
