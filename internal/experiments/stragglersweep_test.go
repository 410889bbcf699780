package experiments

import (
	"reflect"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/mapreduce"
	"datanet/internal/sched"
)

// A reduced-scale sweep must show the headline effects the CI gate pins
// on the full run: both mitigations beat the unmitigated makespan under
// the heavy-slowdown plan, backups win, decodes happen, and no cell ever
// diverges from the fault-free output.
func TestStragglerSweepSmall(t *testing.T) {
	r, err := StragglerSweep([]int{32}, MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * 2 * len(stragglerArms())
	if len(r.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(r.Rows), wantRows)
	}
	ms := r.SimMakespans()
	none := ms["32/slow-heavy/oracle/none"]
	if none <= 0 {
		t.Fatalf("missing unmitigated cell: %v", ms)
	}
	for _, arm := range []string{"spec-q0.90", "coded-r0.70"} {
		if got := ms["32/slow-heavy/oracle/"+arm]; got >= none {
			t.Errorf("%s makespan %.2f did not beat unmitigated %.2f", arm, got, none)
		}
	}
	for _, row := range r.Rows {
		if !row.OutputOK {
			t.Errorf("%d/%s/%s/%s diverged from the fault-free output",
				row.Nodes, row.Plan, row.Detector, row.Arm)
		}
		if !(row.P50 <= row.P90 && row.P90 <= row.P99 && row.P99 <= row.FilterEnd) {
			t.Errorf("%s/%s/%s: tail quantiles not monotone: %.2f/%.2f/%.2f vs filter %.2f",
				row.Plan, row.Detector, row.Arm, row.P50, row.P90, row.P99, row.FilterEnd)
		}
		if strings.HasPrefix(row.Arm, "none") && (row.Launches != 0 || row.Decodes != 0 || row.Wasted != 0) {
			t.Errorf("unmitigated cell billed mitigation work: %+v", row)
		}
	}
	c := r.Counters()
	if c["speculative_wins"] == 0 || c["coded_decode_count"] == 0 {
		t.Errorf("sweep exercised no mitigation: %v", c)
	}
	if c["output_divergences"] != 0 {
		t.Errorf("output divergences: %v", c)
	}
}

// Every cell runs on its own copy of the scale's layout: a crash plan's
// re-replication must not leak into the shared base layout, so repeated
// sweeps in one process agree exactly.
func TestStragglerSweepRunsIsolated(t *testing.T) {
	first, err := StragglerSweep([]int{16}, MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := StragglerSweep([]int{16}, MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated sweep differs:\n%+v\n%+v", first, second)
	}
	if first.String() != second.String() {
		t.Errorf("repeated sweep renders differently:\n%s\n%s", first, second)
	}

	q := DefaultFaultParams()
	q.Nodes, q.Blocks = 16, 16
	env, err := NewMovieEnv(q)
	if err != nil {
		t.Fatal(err)
	}
	before := replicaMap(env.FS)
	if _, err := stragglerScale(env, q.Seed); err != nil {
		t.Fatal(err)
	}
	if got := replicaMap(env.FS); !reflect.DeepEqual(got, before) {
		t.Error("straggler cells changed the shared base layout")
	}

	// The slow+crash plan does re-replicate on the layout it runs on, so
	// the check above has teeth.
	run := func(cfg mapreduce.Config) *mapreduce.Result {
		t.Helper()
		cfg.File, cfg.TargetSub = env.File, env.Target
		cfg.App, cfg.Picker = apps.WordCount{}, sched.NewLocalityPicker
		r, err := mapreduce.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	healthy := run(mapreduce.Config{FS: env.FS.Clone()})
	plans := stragglerPlans(16, healthy.FilterEnd, q.Seed)
	if plans[1].name != "slow+crash" {
		t.Fatalf("plan[1] = %q, want slow+crash", plans[1].name)
	}
	fs := env.FS.Clone()
	if r := run(mapreduce.Config{FS: fs, Faults: plans[1].plan}); r.ReplicasRepaired == 0 {
		t.Fatal("slow+crash repaired no replicas; isolation is untested")
	}
	if reflect.DeepEqual(replicaMap(fs), before) {
		t.Error("slow+crash left its layout unchanged")
	}
}
