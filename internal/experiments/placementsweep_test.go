package experiments

import (
	"reflect"
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
	"datanet/internal/sched"
)

// smallSweepParams keeps the sweep fast enough for unit tests while still
// exercising every arm end-to-end.
func smallSweepParams() MovieParams {
	return MovieParams{
		Nodes:      8,
		Racks:      2,
		Blocks:     48,
		BlockBytes: 64 << 10,
		Movies:     200,
		Seed:       7,
	}
}

func TestPlacementSweepStructure(t *testing.T) {
	res, err := PlacementSweep(smallSweepParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 2 {
		t.Fatalf("workloads = %d, want clustered + drifting", len(res.Workloads))
	}
	wantArms := []string{"baseline", "scheduler-only", "placement-only", "both"}
	for _, wl := range res.Workloads {
		if wl.Name != "clustered" && wl.Name != "drifting" {
			t.Errorf("unexpected workload %q", wl.Name)
		}
		if len(wl.Arms) != len(wantArms) {
			t.Fatalf("%s: arms = %d, want %d", wl.Name, len(wl.Arms), len(wantArms))
		}
		for i, a := range wl.Arms {
			if a.Name != wantArms[i] {
				t.Errorf("%s: arm[%d] = %q, want %q", wl.Name, i, a.Name, wantArms[i])
			}
			if a.Makespan <= 0 || a.FirstJob <= 0 || a.LastJob <= 0 {
				t.Errorf("%s/%s: non-positive times %+v", wl.Name, a.Name, a)
			}
			rebalances := a.Name == "placement-only" || a.Name == "both"
			if rebalances && (a.Moves == 0 || a.BytesMoved == 0) {
				t.Errorf("%s/%s: rebalancing arm moved nothing: %+v", wl.Name, a.Name, a)
			}
			if !rebalances && (a.Moves != 0 || a.BytesMoved != 0) {
				t.Errorf("%s/%s: scheduler-only arm moved data: %+v", wl.Name, a.Name, a)
			}
		}
	}
}

func TestPlacementSweepBenchExports(t *testing.T) {
	res, err := PlacementSweep(smallSweepParams())
	if err != nil {
		t.Fatal(err)
	}
	ms := res.SimMakespans()
	cs := res.Counters()
	for _, wl := range res.Workloads {
		for _, a := range wl.Arms {
			key := wl.Name + "/" + a.Name
			if got, ok := ms[key]; !ok || got != a.Makespan {
				t.Errorf("SimMakespans[%q] = %v (present %v), want %v", key, got, ok, a.Makespan)
			}
			if a.Moves > 0 {
				if got := cs[key+"/moves"]; got != int64(a.Moves) {
					t.Errorf("Counters[%q/moves] = %d, want %d", key, got, a.Moves)
				}
				if got := cs[key+"/bytes_moved"]; got != a.BytesMoved {
					t.Errorf("Counters[%q/bytes_moved] = %d, want %d", key, got, a.BytesMoved)
				}
			}
		}
	}
	out := res.String()
	for _, want := range []string{"placement sweep (clustered workload", "placement sweep (drifting workload",
		"scheduler+placement vs scheduler-only", "bytes moved"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q", want)
		}
	}
}

// replicaMap lists every block's replica nodes, in block order.
func replicaMap(fs *hdfs.FileSystem) [][]cluster.NodeID {
	out := make([][]cluster.NodeID, fs.NumBlocks())
	for i := range out {
		out[i] = fs.Locations(hdfs.BlockID(i))
	}
	return out
}

// The arms share one dataset and each runs on its own copy of the replica
// layout: a rebalancing arm must leave the shared base layout as built,
// so the sweep reproduces itself exactly within one process.
func TestPlacementSweepArmsIsolated(t *testing.T) {
	p := smallSweepParams()
	first, err := PlacementSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := PlacementSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated sweep differs:\n%+v\n%+v", first, second)
	}
	if first.String() != second.String() {
		t.Errorf("repeated sweep renders differently:\n%s\n%s", first, second)
	}

	base, err := NewMovieEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	before := replicaMap(base.FS)
	targets := sweepTargets("clustered")
	arm, err := runSweepArm(base, p.Seed, "both", targets, sched.NewDataNetPicker, true)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Moves == 0 {
		t.Fatal("rebalancing arm moved nothing; isolation is untested")
	}
	if got := replicaMap(base.FS); !reflect.DeepEqual(got, before) {
		t.Error("rebalancing arm changed the shared base layout")
	}
	again, err := runSweepArm(base, p.Seed, "both", targets, sched.NewDataNetPicker, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != arm {
		t.Errorf("arm rerun on the shared base = %+v, want %+v", again, arm)
	}
}
