package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"datanet/internal/stats"
)

// suiteSection is one experiment of the paper suite. Sections marked
// shared consume the shared 256-block movie environment (Fig. 5–7, Tables
// I–II, Fig. 9–10, the migration analysis, …) and must run in their
// declared order, since the paper derives them from the same runs;
// independent sections build their own environments (or are analytic) and
// may run concurrently.
type suiteSection struct {
	name   string
	shared bool
	run    func(env *Env) (fmt.Stringer, error)
}

// shared adapts an experiment on the shared movie environment.
func shared[R fmt.Stringer](name string, run func(*Env) (R, error)) suiteSection {
	return suiteSection{name, true, func(env *Env) (fmt.Stringer, error) { return run(env) }}
}

// independent adapts an experiment that builds its own environment.
func independent[R fmt.Stringer](name string, run func() (R, error)) suiteSection {
	return suiteSection{name, false, func(*Env) (fmt.Stringer, error) { return run() }}
}

// suiteSections is the full paper suite in output order.
func suiteSections() []suiteSection {
	return []suiteSection{
		// Figure 1 (its own 128-block env, as in the paper's intro example).
		independent("fig1", func() (*Fig1Result, error) {
			p := DefaultMovieParams()
			p.Blocks = 128
			return Fig1(p)
		}),
		// Figure 2 (analytic).
		independent("fig2", func() (*Fig2Result, error) { return Fig2(stats.Gamma{}, 0, nil), nil }),
		shared("table1", Table1),
		shared("fig5", Fig5),
		shared("fig6", Fig6),
		shared("fig7", Fig7),
		independent("fig8", func() (*Fig8Result, error) { return Fig8(EventParams{}) }),
		shared("table2", func(env *Env) (*Table2Result, error) { return Table2(env, nil) }),
		shared("fig9", func(env *Env) (*Fig9Result, error) { return Fig9(env, 50) }),
		shared("fig10", func(env *Env) (*Fig10Result, error) { return Fig10(env, nil) }),
		shared("migration", Migration),
		shared("bucket-ablation", BucketAblation),
		shared("scheduler-ablation", SchedulerAblation),
		// Extension experiments (beyond the paper's figures; DESIGN.md §5-6).
		independent("theory", func() (*TheoryResult, error) { return Theory(stats.Gamma{}, 0, 0, 3) }),
		independent("cluster-sweep", func() (*ClusterSweepResult, error) { return ClusterSweep(nil, MovieParams{}) }),
		independent("heterogeneity", func() (*HeterogeneityResult, error) { return Heterogeneity(MovieParams{}) }),
		shared("reactive", Reactive),
		shared("io-saving", func(env *Env) (*IOSavingResult, error) { return IOSaving(env, nil) }),
		shared("selectivity", func(env *Env) (*SelectivityResult, error) { return Selectivity(env, nil) }),
		independent("weblog", func() (*WebLogResult, error) { return WebLog(WebLogParams{}) }),
		independent("placement", func() (*PlacementResult, error) { return Placement(MovieParams{}) }),
		shared("model-check", func(env *Env) (*ModelCheckResult, error) { return ModelCheck(env, nil) }),
		shared("aggregation", func(env *Env) (*AggregationResult, error) { return Aggregation(env, nil) }),
		shared("amortization", Amortization),
		independent("block-size", func() (*BlockSizeResult, error) { return BlockSize(nil, MovieParams{}) }),
		independent("replication", func() (*ReplicationResult, error) { return Replication(nil, MovieParams{}) }),
		independent("fault-tolerance", func() (*FaultTolResult, error) { return FaultTolerance(MovieParams{}) }),
		independent("detector-latency", func() (*DetectSweepResult, error) { return DetectorSweep(MovieParams{}) }),
		independent("failover-sweep", FailoverSweep),
		independent("placement-sweep", func() (*PlacementSweepResult, error) { return PlacementSweep(MovieParams{}) }),
		independent("straggler-sweep", func() (*StragglerSweepResult, error) { return StragglerSweep(nil, MovieParams{}) }),
		independent("partition-sweep", func() (*PartitionSweepResult, error) { return PartitionSweep(MovieParams{}) }),
	}
}

// selectSections returns the whole suite when only is empty and otherwise
// the one section named only.
func selectSections(only string) ([]suiteSection, error) {
	secs := suiteSections()
	if only == "" {
		return secs, nil
	}
	names := make([]string, len(secs))
	for i, s := range secs {
		if s.name == only {
			return secs[i : i+1], nil
		}
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(names, ", "))
}

// RunSuite runs the paper suite — or, when only is non-empty, just the
// section of that name — on up to workers concurrent goroutines, and
// returns each section's benchmark record (wall-clock seconds plus the
// simulated makespans and counters the section exposes).
//
// The kernel-based engine is job-isolated (each job runs on its own event
// queue and clock), so independent sections fan out freely; sections on
// the shared movie environment, which is built only when one of them is
// selected, keep their declared order on a single chain. Section i is
// written to w as soon as it and every section before it are done, so the
// bytes written are the same at any worker count. On an error the
// sections before the failing one are written and the error is returned;
// an unknown name writes nothing.
func RunSuite(w io.Writer, workers int, only string) (*BenchReport, error) {
	secs, err := selectSections(only)
	if err != nil {
		return nil, err
	}
	suiteStart := time.Now()
	var env *Env
	if slices.ContainsFunc(secs, func(s suiteSection) bool { return s.shared }) {
		if env, err = NewMovieEnv(DefaultMovieParams()); err != nil {
			return nil, err
		}
	}
	rep, err := runSections(w, max(workers, 1), secs, env)
	if err == nil {
		rep.WallSeconds = time.Since(suiteStart).Seconds()
	}
	return rep, err
}

// runSections runs secs on up to workers goroutines, handing env to the
// shared ones, and streams their output to w in order (see RunSuite).
func runSections(w io.Writer, workers int, secs []suiteSection, env *Env) (*BenchReport, error) {
	type result struct {
		out  fmt.Stringer
		err  error
		wall time.Duration
	}
	done := make([]chan result, len(secs))
	for i := range done {
		done[i] = make(chan result, 1)
	}
	var stopped atomic.Bool // set once a section failed: later ones are skipped
	sem := make(chan struct{}, workers)
	run := func(i int) {
		sem <- struct{}{}
		defer func() { <-sem }()
		if stopped.Load() {
			done[i] <- result{}
			return
		}
		t0 := time.Now()
		out, err := secs[i].run(env)
		done[i] <- result{out, err, time.Since(t0)}
	}
	go func() { // the shared-env chain: declared order, one at a time
		for i, s := range secs {
			if s.shared {
				run(i)
			}
		}
	}()
	for i, s := range secs {
		if !s.shared {
			go run(i)
		}
	}

	rep := &BenchReport{Workers: workers}
	for i, s := range secs {
		r := <-done[i]
		if r.err == nil {
			_, r.err = fmt.Fprintln(w, r.out.String())
		}
		if r.err != nil {
			stopped.Store(true)
			for _, d := range done[i+1:] {
				<-d
			}
			return rep, r.err
		}
		rep.Sections = append(rep.Sections, benchSection(s.name, r.wall, r.out))
	}
	return rep, nil
}
