package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datanet/internal/apps"
	"datanet/internal/experiments"
	"datanet/internal/gen"
)

// goldenSeed is the seed the suite golden was rendered at; only there do
// the sweep tables have an exact expected text.
const goldenSeed = 42

// goldenPath locates the suite golden relative to the repository root.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "suite.golden")

// sweepInst runs the two experiment sweeps that take most of the suite's
// wall time, one after the other.
type sweepInst struct {
	place  experiments.MovieParams // PlacementSweep parameters
	fault  experiments.MovieParams // StragglerSweep parameters
	scales []int                   // StragglerSweep node counts, one call each
	// ds is the suite's shared movie environment, which a suite run
	// builds first and holds while the sweeps run; traced runs replay
	// its layers.
	ds *dataset
	// golden is the suite golden text; empty when the seed has none, and
	// only the invariant checks apply.
	golden string
}

func setupSweep(root string, seed int64, b *spanBuf) (instance, error) {
	s := b.begin("setup", 0, -1)
	defer b.end(s, 0, 0)
	fault := experiments.DefaultFaultParams()
	fault.Seed = seed
	in := &sweepInst{place: movieParams(seed), fault: fault, scales: []int{128, 1024}}
	var err error
	if in.ds, err = buildDataset(in.place, []string{"reviews.log"}, b, s); err != nil {
		return nil, err
	}
	if seed == goldenSeed {
		blob, err := os.ReadFile(filepath.Join(root, goldenPath))
		if err != nil {
			return nil, fmt.Errorf("reading the suite golden: %w", err)
		}
		in.golden = string(blob)
	}
	return in, nil
}

func (in *sweepInst) run(d time.Duration, tr *tracer) (*loop, error) {
	b := tr.buf()
	l := &loop{}
	for id := int64(1); l.busy < d; id++ {
		root := b.begin("sweep", id, -1)
		t0 := time.Now()
		s := b.begin("experiments.PlacementSweep", id, root)
		pl, err := experiments.PlacementSweep(in.place)
		if err != nil {
			return nil, fmt.Errorf("placement sweep: %w", err)
		}
		b.end(s, int64(len(pl.Workloads)), 0)
		s = b.begin("experiments.StragglerSweep", id, root)
		st := &experiments.StragglerSweepResult{}
		for _, n := range in.scales {
			r, err := experiments.StragglerSweep([]int{n}, in.fault)
			if err != nil {
				return nil, fmt.Errorf("straggler sweep at %d nodes: %w", n, err)
			}
			st.Rows = append(st.Rows, r.Rows...)
		}
		b.end(s, int64(len(st.Rows)), 0)
		dt := time.Since(t0)
		b.end(root, 0, 0)
		l.busy += dt
		l.ops = append(l.ops, ms(dt))
		l.attempted += 2 // the placement and the straggler section
		for _, err := range checkSweep(pl, st, in.golden) {
			l.fail("sweep %d: %v", id, err)
		}
	}
	if b != nil {
		// Replay the placement sweep's drifting job sequence as
		// straggler-style WordCount jobs on the shared environment,
		// timing each layer directly.
		root := b.begin("replay", 0, -1)
		defer b.end(root, 0, 0)
		var subs []string
		for j := 0; j < experiments.SweepJobs; j++ {
			sub := gen.MovieID(j)
			subs = append(subs, sub)
			s := b.begin("mapreduce.Run", 0, root)
			res, err := analysisJob(in.ds, sub, apps.WordCount{}, true).Run()
			if err != nil {
				return nil, err
			}
			b.end(s, int64(len(res.Tasks)), 0)
			if err := replayJob(in.ds, sub, apps.WordCount{}, b, root); err != nil {
				return nil, err
			}
		}
		replayKeys(in.ds.metas[0].Array(), subs, b, root)
	}
	return l, nil
}

// checkSweep returns at most one error per section: every straggler row
// must reproduce the fault-free output, every placement arm must report a
// finite makespan and move nothing unless it rebalances, and with a golden
// both rendered tables must appear in it verbatim.
func checkSweep(pl *experiments.PlacementSweepResult, st *experiments.StragglerSweepResult, golden string) []error {
	var out, bad []error
	if len(pl.Workloads) != 2 {
		bad = append(bad, fmt.Errorf("%d placement workloads, want 2", len(pl.Workloads)))
	}
	for _, wl := range pl.Workloads {
		if len(wl.Arms) != 4 {
			bad = append(bad, fmt.Errorf("%s: %d arms, want 4", wl.Name, len(wl.Arms)))
		}
		for _, a := range wl.Arms {
			if !(a.Makespan > 0) || math.IsInf(a.Makespan, 0) {
				bad = append(bad, fmt.Errorf("%s/%s: makespan %v", wl.Name, a.Name, a.Makespan))
			}
			if !strings.HasPrefix(a.Name, "placement") && a.Name != "both" && a.Moves != 0 {
				bad = append(bad, fmt.Errorf("%s/%s: %d moves without a rebalancer", wl.Name, a.Name, a.Moves))
			}
		}
	}
	if golden != "" && !strings.Contains(golden, pl.String()) {
		bad = append(bad, errors.New("placement table differs from the suite golden"))
	}
	if len(bad) > 0 {
		out = append(out, fmt.Errorf("placement: %w", errors.Join(bad...)))
	}

	bad = nil
	if len(st.Rows) == 0 {
		bad = append(bad, errors.New("no rows"))
	}
	for _, r := range st.Rows {
		if !r.OutputOK {
			bad = append(bad, fmt.Errorf("%d/%s/%s/%s diverged from the fault-free output", r.Nodes, r.Plan, r.Detector, r.Arm))
		}
	}
	if golden != "" && !strings.Contains(golden, st.String()) {
		bad = append(bad, errors.New("straggler table differs from the suite golden"))
	}
	if len(bad) > 0 {
		out = append(out, fmt.Errorf("straggler: %w", errors.Join(bad...)))
	}
	return out
}

func (in *sweepInst) close() {}
