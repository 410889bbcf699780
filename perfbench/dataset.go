package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"datanet"
	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/experiments"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
)

// meanRecordBytes sizes the review count so the log fills the target block
// count, as experiments.NewMovieEnv does.
const meanRecordBytes = 305

// targetSub is the most-reviewed movie, the paper's running example and
// the straggler sweep's target.
var targetSub = gen.MovieID(0)

// movieParams is the paper's default movie configuration (32 nodes, 256
// blocks, 2000 movies) with the workload seed as the generator seed.
func movieParams(seed int64) experiments.MovieParams {
	p := experiments.DefaultMovieParams()
	p.Seed = seed
	return p
}

// dataset is a generated movie-review log stored on the simulated HDFS,
// with one ElasticMap array per file.
type dataset struct {
	recs  []records.Record
	fs    *datanet.FileSystem
	files []string
	metas []*datanet.Meta
	// bySub lists, per sub-dataset, the indexes of its records in file
	// order; built on first use by the output checks.
	bySub map[string][]int32
}

// buildDataset generates the log, writes it as len(files) consecutive
// chronological pieces and builds each piece's ElasticMap, recording the
// three layers as spans under parent.
func buildDataset(p experiments.MovieParams, files []string, b *spanBuf, parent int) (*dataset, error) {
	s := b.begin("gen.Movies", 0, parent)
	recs := gen.Movies(gen.MovieConfig{
		Movies:   p.Movies,
		Reviews:  int(p.BlockBytes) * p.Blocks / meanRecordBytes,
		SpanDays: 365,
		Seed:     p.Seed,
	})
	b.end(s, int64(len(recs)), 0)

	topo := datanet.NewScaledCluster(p.Nodes, p.Racks, p.BlockBytes)
	fs, err := datanet.NewFileSystem(topo, datanet.FSConfig{
		BlockSize: p.BlockBytes, Replication: hdfs.DefaultReplication, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	pieces := make([][]records.Record, len(files))
	var raw int64
	for i := range files {
		pieces[i] = recs[i*len(recs)/len(files) : (i+1)*len(recs)/len(files)]
	}
	for _, r := range recs {
		raw += r.Size()
	}
	s = b.begin("hdfs.Write", 0, parent)
	for i, f := range files {
		if _, err := fs.Write(f, pieces[i]); err != nil {
			return nil, fmt.Errorf("writing %s: %w", f, err)
		}
	}
	b.end(s, int64(len(files)), raw)

	ds := &dataset{recs: recs, fs: fs, files: files}
	s = b.begin("elasticmap.Build", 0, parent)
	for _, f := range files {
		m, err := datanet.BuildMeta(fs, f, datanet.MetaOptions{Alpha: p.Alpha})
		if err != nil {
			return nil, fmt.Errorf("building meta-data of %s: %w", f, err)
		}
		ds.metas = append(ds.metas, m)
	}
	b.end(s, int64(len(files)), raw)
	return ds, nil
}

// subRecords returns sub's records in file order.
func (ds *dataset) subRecords(sub string) []records.Record {
	if ds.bySub == nil {
		ds.bySub = map[string][]int32{}
		for i, r := range ds.recs {
			ds.bySub[r.Sub] = append(ds.bySub[r.Sub], int32(i))
		}
	}
	idx := ds.bySub[sub]
	out := make([]records.Record, len(idx))
	for i, j := range idx {
		out[i] = ds.recs[j]
	}
	return out
}

// mapReduce runs app sequentially over recs — the reference every job
// output is checked against — recording the map and reduce phases as
// spans under parent.
func mapReduce(app apps.App, recs []records.Record, b *spanBuf, parent int) map[string]string {
	s := b.begin("apps.Map", 0, parent)
	groups := map[string][]string{}
	var bytes int64
	for _, r := range recs {
		bytes += r.Size()
		app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
	}
	b.end(s, int64(len(recs)), bytes)
	s = b.begin("apps.Reduce", 0, parent)
	out := make(map[string]string, len(groups))
	for k, vs := range groups {
		out[k] = app.Reduce(k, vs)
	}
	b.end(s, int64(len(groups)), 0)
	return out
}

// digest fingerprints a job output independently of map order.
func digest(out map[string]string) uint64 {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(out[k]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// analysisJob is the job the analyze workload runs: Algorithm 1 over the
// ElasticMap weights, empty blocks skipped, the app really executed.
func analysisJob(ds *dataset, sub string, app apps.App, execute bool) datanet.Job {
	return datanet.Job{
		FS: ds.fs, File: ds.files[0], Target: sub, App: app,
		Scheduler: datanet.SchedulerDataNet, Meta: ds.metas[0],
		SkipEmpty: true, Execute: execute,
	}
}

// replayKeys times the ElasticMap queries of subs directly against arr,
// repeating the list until at least minReplays calls were timed.
func replayKeys(arr *elasticmap.Array, subs []string, b *spanBuf, parent int) {
	const minReplays = 1000
	if len(subs) == 0 {
		return
	}
	reps := (minReplays + len(subs) - 1) / len(subs)
	s := b.begin("elasticmap.Estimate", 0, parent)
	for r := 0; r < reps; r++ {
		for _, sub := range subs {
			arr.Estimate(sub)
		}
	}
	b.end(s, int64(reps*len(subs)), 0)
	s = b.begin("elasticmap.Distribution", 0, parent)
	for r := 0; r < reps; r++ {
		for _, sub := range subs {
			arr.Distribution(sub)
		}
	}
	b.end(s, int64(reps*len(subs)), 0)
}

// replayJob times the layers of one analysis job by calling each directly
// on the job's inputs: a DataNet picker drained over the job's tasks, the
// simulated run without app execution, and the app's map and reduce over
// the sub-dataset's records.
func replayJob(ds *dataset, sub string, app apps.App, b *spanBuf, parent int) error {
	dist := ds.metas[0].Array().Distribution(sub)
	blocks, err := ds.fs.Blocks(ds.files[0])
	if err != nil {
		return err
	}
	weights := make([]int64, len(blocks))
	for _, be := range dist {
		weights[be.Block] = be.Size
	}
	var tasks []sched.Task
	for j, blk := range blocks {
		if weights[j] == 0 {
			continue
		}
		tasks = append(tasks, sched.Task{
			Block: blk.ID, Index: j, Weight: weights[j], Bytes: blk.Bytes,
			Locations: ds.fs.Locations(blk.ID),
		})
	}
	topo := ds.fs.Topology()
	s := b.begin("sched.Drain", 0, parent)
	picks := drain(sched.NewDataNetPicker(tasks, topo), topo.N())
	b.end(s, int64(picks), 0)
	if picks != len(tasks) {
		return fmt.Errorf("DataNet picker handed out %d of %d tasks for %s", picks, len(tasks), sub)
	}

	s = b.begin("mapreduce.Sim", 0, parent)
	res, err := analysisJob(ds, sub, app, false).Run()
	if err != nil {
		return err
	}
	b.end(s, int64(len(res.Tasks)), 0)
	mapReduce(app, ds.subRecords(sub), b, parent)
	return nil
}

// drain empties picker under the pull protocol, one request per node per
// round, and returns how many tasks it handed out.
func drain(p sched.Picker, nodes int) int {
	picks := 0
	for p.Remaining() > 0 {
		progressed := false
		for n := 0; n < nodes && p.Remaining() > 0; n++ {
			if _, ok := p.Next(cluster.NodeID(n)); ok {
				picks++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return picks
}
