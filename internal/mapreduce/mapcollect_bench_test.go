package mapreduce

import (
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
)

// BenchmarkMapCollect measures each paper app's Map plus the engine's
// collector (the executed-app path of a job) over one fixed movie-review
// corpus: every block, all records, no filter predicate. MB/s counts the
// record bytes scanned.
func BenchmarkMapCollect(b *testing.B) {
	fs, err := hdfs.NewFileSystem(cluster.MustHomogeneous(4, 2), hdfs.Config{BlockSize: 256 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Write("log", gen.Movies(gen.MovieConfig{Movies: 200, Reviews: 20000, Seed: 42})); err != nil {
		b.Fatal(err)
	}
	blocks, err := fs.Blocks("log")
	if err != nil {
		b.Fatal(err)
	}
	var bytes int64
	for _, blk := range blocks {
		bytes += blk.Bytes
	}
	for _, app := range apps.All() {
		b.Run(app.Name(), func(b *testing.B) {
			cfg := Config{App: app, ExecuteApp: true}
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := newCollector(cfg)
				for _, blk := range blocks {
					c.runMap(blk, cfg)
				}
			}
		})
	}
}
