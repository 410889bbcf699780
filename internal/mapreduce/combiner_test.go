package mapreduce

import (
	"reflect"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/partition"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
)

// uncombined hides an app's Combine method: the struct only promotes the
// apps.App method set, so the collector sees no apps.Combiner.
type uncombined struct{ apps.App }

// combinerEnv writes a small movie-review log over many blocks, so fault
// plans and mitigation modes have tasks to disturb.
func combinerEnv(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	fs, err := hdfs.NewFileSystem(cluster.MustHomogeneous(8, 2), hdfs.Config{BlockSize: 16 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("log", gen.Movies(gen.MovieConfig{Movies: 8, Reviews: 3000, Seed: 42})); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCombinerOutputMatchesUncombined: folding each map task's output
// with the app's combiner must not change the job output, healthy or
// under crashes, either mitigation mode (coded runs decode fragments
// through runRecords) and the skew partitioner's heavy-key split.
func TestCombinerOutputMatchesUncombined(t *testing.T) {
	slow := []faults.Slowdown{{Node: 1, CPU: 0.005, Disk: 0.005}, {Node: 4, CPU: 0.005, Disk: 0.005}}
	scenarios := []struct {
		name string
		set  func(*Config)
	}{
		{"healthy", func(*Config) {}},
		{"crash", func(c *Config) {
			c.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 2, At: 0.015}, {Node: 5, At: 0.025, RejoinAt: 0.2}}}
		}},
		{"speculative", func(c *Config) {
			c.Faults = &faults.Plan{Slow: slow}
			c.Mitigate = &straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.5, PerJob: -1}
		}},
		{"coded", func(c *Config) {
			c.Faults = &faults.Plan{Slow: slow}
			c.Mitigate = &straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}
		}},
		{"skew", func(c *Config) {
			c.Partition = &partition.Config{Mode: partition.ModeSkew}
			c.Reducers = 11
		}},
	}
	fs := combinerEnv(t)
	for _, app := range []apps.App{apps.WordCount{}, apps.WordHistogram{}} {
		if _, ok := app.(apps.Combiner); !ok {
			t.Fatalf("%s does not implement apps.Combiner", app.Name())
		}
		for _, sc := range scenarios {
			t.Run(app.Name()+"/"+sc.name, func(t *testing.T) {
				run := func(a apps.App) *Result {
					cfg := Config{
						FS: fs, File: "log", TargetSub: gen.MovieID(0),
						App: a, Picker: sched.NewDataNetPicker,
						ExecuteApp: true, TaskOverhead: 0.01,
					}
					sc.set(&cfg)
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got, want := run(app), run(uncombined{app})
				if len(want.Output) == 0 {
					t.Fatal("job produced no output")
				}
				if !reflect.DeepEqual(got.Output, want.Output) {
					t.Errorf("combined output differs from uncombined (%d keys vs %d)", len(got.Output), len(want.Output))
				}
				switch sc.name {
				case "crash":
					if got.NodeCrashes == 0 || got.TasksRetried == 0 {
						t.Errorf("plan crashed %d nodes and retried %d tasks", got.NodeCrashes, got.TasksRetried)
					}
				case "speculative":
					if got.SpeculativeLaunches == 0 {
						t.Error("plan launched no backup")
					}
				case "coded":
					if got.CodedDecodes == 0 {
						t.Error("plan never decoded a fragment")
					}
				case "skew":
					if got.PartitionSplitKeys == 0 {
						t.Error("skew partitioner split no key")
					}
				}
			})
		}
	}
}

// TestCollectorFoldsPerTask pins where the combiner applies: one value per
// key per map task with a Combiner, every emitted value without one, and
// task order across tasks either way.
func TestCollectorFoldsPerTask(t *testing.T) {
	task1 := []records.Record{{Payload: "a b a"}, {Payload: "a"}}
	task2 := []records.Record{{Payload: "b a"}}
	for _, tc := range []struct {
		app  apps.App
		want map[string][]string
	}{
		{apps.WordCount{}, map[string][]string{"a": {"3", "1"}, "b": {"1", "1"}}},
		{uncombined{apps.WordCount{}}, map[string][]string{"a": {"1", "1", "1", "1"}, "b": {"1", "1"}}},
	} {
		c := newCollector(Config{App: tc.app, ExecuteApp: true})
		c.runRecords(task1, Config{App: tc.app})
		c.runRecords(task2, Config{App: tc.app})
		if !reflect.DeepEqual(c.groups, tc.want) {
			t.Errorf("%T: groups = %v, want %v", tc.app, c.groups, tc.want)
		}
	}
}
