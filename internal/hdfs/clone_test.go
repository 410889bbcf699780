package hdfs

import (
	"reflect"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/placement"
	"datanet/internal/trace"
)

// layoutSnapshot captures everything a layout mutation can change.
type layoutSnapshot struct {
	locations [][]cluster.NodeID
	usage     map[cluster.NodeID]int64
	health    []BlockID
	info      FileInfo
}

func snapshot(t *testing.T, fs *FileSystem) layoutSnapshot {
	t.Helper()
	s := layoutSnapshot{usage: fs.Usage(), health: fs.ReplicationHealth()}
	for id := 0; id < fs.NumBlocks(); id++ {
		s.locations = append(s.locations, fs.Locations(BlockID(id)))
	}
	info, err := fs.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	s.info = *info
	return s
}

func TestCloneIsolatesLayout(t *testing.T) {
	// Flooded placement leaves the skew Rebalance needs to act on.
	fs, err := NewFileSystem(cluster.MustHomogeneous(8, 2),
		Config{BlockSize: 512, Replication: 2, Placement: &floodPlacement{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("f", mkRecords(120, 40)); err != nil {
		t.Fatal(err)
	}
	orig := snapshot(t, fs)
	mutations := []struct {
		name string
		do   func(c *FileSystem) error
	}{
		{"FailNodes", func(c *FileSystem) error { c.FailNodes([]cluster.NodeID{0}); return nil }},
		{"ApplyMove", func(c *FileSystem) error {
			b := c.Block(0)
			return c.ApplyMove(placement.Move{Block: 0, From: b.Replicas[0], To: 7})
		}},
		{"ApplyMove/add", func(c *FileSystem) error {
			return c.ApplyMove(placement.Move{Block: 0, From: placement.AddReplica, To: 7})
		}},
		{"DecommissionNode", func(c *FileSystem) error { _, err := c.DecommissionNode(1); return err }},
		{"Rebalance", func(c *FileSystem) error { c.Rebalance(0.1); return nil }},
		{"Write", func(c *FileSystem) error { _, err := c.Write("g", mkRecords(10, 40)); return err }},
	}
	for _, m := range mutations {
		c := fs.Clone()
		if got := snapshot(t, c); !reflect.DeepEqual(got, orig) {
			t.Fatalf("%s: fresh clone differs from the original", m.name)
		}
		if err := m.do(c); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if reflect.DeepEqual(snapshot(t, c), orig) {
			t.Errorf("%s: mutation left the clone unchanged; the test proves nothing", m.name)
		}
		if got := snapshot(t, fs); !reflect.DeepEqual(got, orig) {
			t.Errorf("%s on the clone changed the original's layout", m.name)
		}
		if files := fs.Files(); len(files) != 1 {
			t.Errorf("%s on the clone changed the original's files: %v", m.name, files)
		}
	}
	// Content is shared, not copied.
	if c := fs.Clone(); &c.Block(3).Records[0] != &fs.Block(3).Records[0] {
		t.Error("clone copied block records instead of sharing them")
	}
}

func TestCloneWriteMatchesFreshFS(t *testing.T) {
	policies := map[string]func() PlacementPolicy{
		"random":      func() PlacementPolicy { return RandomPlacement{} },
		"rack-aware":  func() PlacementPolicy { return RackAwarePlacement{} },
		"round-robin": func() PlacementPolicy { return &RoundRobinPlacement{Stride: 3} },
	}
	for name, pol := range policies {
		build := func() *FileSystem {
			fs := newFS(t, 9, Config{BlockSize: 512, Placement: pol(), Seed: 11})
			if _, err := fs.Write("f", mkRecords(90, 40)); err != nil {
				t.Fatal(err)
			}
			return fs
		}
		orig, twin := build(), build()
		clone := orig.Clone()
		recs := mkRecords(70, 40)
		var layouts [3][][]cluster.NodeID
		for i, fs := range []*FileSystem{clone, twin, orig} {
			if _, err := fs.Write("g", recs); err != nil {
				t.Fatal(err)
			}
			blocks, _ := fs.Blocks("g")
			for _, b := range blocks {
				layouts[i] = append(layouts[i], b.Replicas)
			}
		}
		if !reflect.DeepEqual(layouts[0], layouts[1]) {
			t.Errorf("%s: clone placed %v, identically built filesystem placed %v", name, layouts[0], layouts[1])
		}
		// The clone's write drew from its own stream, not the original's.
		if !reflect.DeepEqual(layouts[2], layouts[1]) {
			t.Errorf("%s: original placed %v after the clone wrote, want %v", name, layouts[2], layouts[1])
		}
	}
}

func TestCloneHasNoTraceRecorder(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 9})
	fs.Write("f", mkRecords(80, 40))
	rec := trace.New()
	fs.SetTrace(rec)
	c := fs.Clone()
	c.FailNodes([]cluster.NodeID{2})
	if n := len(rec.Events()); n != 0 {
		t.Errorf("clone's repairs reached the original's recorder: %d events", n)
	}
	if prev := c.SetTrace(nil); prev != nil {
		t.Errorf("clone carries recorder %v", prev)
	}
	if prev := fs.SetTrace(nil); prev != rec {
		t.Error("cloning detached the original's recorder")
	}
}
