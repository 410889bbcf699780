package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/experiments"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/server"
	"datanet/internal/stats"
)

// The serve workloads' traffic. Two closed-loop clients stand for job
// submitters that each wait for their reply.
const (
	serveClients = 2
	// Read mix: estimate, distribution, plan; the rest is top.
	estimateShare     = 0.60
	distributionShare = 0.25
	planShare         = 0.10
	// absentShare of keys name no movie, so Bloom-only misses carry load.
	absentShare = 0.02
	// scrapeEvery requests, a client scrapes GET /metrics.
	scrapeEvery = 500
	// checkEvery-th estimate reply is checked against the array directly.
	checkEvery = 8
	// writeShare of serve-mixed requests append one block; every
	// putEvery appends to an array, a PUT restores its base encoding, so
	// the array stays bounded however long the run.
	writeShare  = 0.01
	putEvery    = 16
	payloadPool = 32
	planNodes   = 32
)

var planSchedulers = []string{"datanet", "maxflow", "locality", "lpt"}

// serveInst is an in-process metadata server over loopback HTTP serving a
// catalog of four arrays, one per quarter of the review log.
type serveInst struct {
	mixed bool
	seed  int64
	names []string
	base  [][]byte // each array's encoding, as loaded and as PUT back
	// payloads are encoded one-block arrays for serve-mixed appends.
	payloads [][]byte
	keys     *stats.Zipf
	loops    int64
	srv      *server.Server
	ts       *httptest.Server
	// idle counts the goroutines running while no server is.
	idle int
	// baseArr and moreArr decode base and payloads for the checks.
	baseArr, moreArr []*elasticmap.Array
}

func setupServe(p experiments.MovieParams, seed int64, mixed bool, b *spanBuf) (instance, error) {
	root := b.begin("setup", 0, -1)
	defer b.end(root, 0, 0)
	in := &serveInst{
		mixed: mixed, seed: seed, keys: stats.NewZipf(p.Movies, zipfS),
		names: []string{"reviews-q1", "reviews-q2", "reviews-q3", "reviews-q4"},
	}
	ds, err := buildDataset(p, in.names, b, root)
	if err != nil {
		return nil, err
	}
	for _, m := range ds.metas {
		s := b.begin("elasticmap.Encode", 0, root)
		enc, err := m.Encode()
		if err != nil {
			return nil, err
		}
		b.end(s, 1, int64(len(enc)))
		in.base = append(in.base, enc)
	}
	if mixed {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < payloadPool; k++ {
			i := k % len(in.names)
			blocks, err := ds.fs.Blocks(in.names[i])
			if err != nil {
				return nil, err
			}
			blk := blocks[rng.Intn(len(blocks))]
			enc, err := elasticmap.Encode(elasticmap.Build([][]records.Record{blk.Records}, ds.metas[i].Array().Options()))
			if err != nil {
				return nil, err
			}
			in.payloads = append(in.payloads, enc)
		}
	}
	in.idle = runtime.NumGoroutine()
	if err := in.start(b, root); err != nil {
		return nil, err
	}
	return in, nil
}

// start loads the catalog from its encodings into a fresh store and
// serves it on a loopback listener.
func (in *serveInst) start(b *spanBuf, parent int) error {
	store := server.NewStore(server.DefaultCacheSize)
	for i, enc := range in.base {
		s := b.begin("elasticmap.Decode", 0, parent)
		arr, err := elasticmap.Decode(enc)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", in.names[i], err)
		}
		b.end(s, 1, int64(len(enc)))
		store.Put(in.names[i], arr)
	}
	in.srv = server.New(store)
	in.ts = httptest.NewServer(in.srv)
	return nil
}

func (in *serveInst) stop() {
	if in.ts != nil {
		in.ts.Close()
	}
	in.ts, in.srv = nil, nil
}

func (in *serveInst) close() { in.stop() }

// released stops the server, waits up to a second for its connection
// goroutines to exit, and returns the live heap left without it. The
// closed listener stays reachable for a collection or two more, so it
// takes the least of a few.
func (in *serveInst) released() uint64 {
	in.stop()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > in.idle && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	h := liveHeap()
	for i := 0; i < 4; i++ {
		time.Sleep(2 * time.Millisecond)
		h = min(h, liveHeap())
	}
	return h
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// estimateReply is the estimate endpoint's body.
type estimateReply struct {
	Epoch         uint64 `json:"epoch"`
	Sub           string `json:"sub"`
	Estimate      int64  `json:"estimate"`
	HashedBlocks  int    `json:"hashedBlocks"`
	BloomedBlocks int    `json:"bloomedBlocks"`
}

// estimateObs is one sampled estimate reply, for the post-run check.
type estimateObs struct {
	array int
	reply estimateReply
}

// writeObs is one acknowledged write.
type writeObs struct {
	array   int
	epoch   uint64
	blocks  int
	payload int // index into payloads; -1 for a PUT of the base
}

// served is one read, kept on traced runs to replay against the array.
type served struct {
	array int
	sub   string
	kind  byte // 'e' estimate, 'd' distribution, 'p' plan
}

// serveRun is the shared state of one loop.
type serveRun struct {
	in      *serveInst
	url     string
	http    *http.Client
	appends []atomic.Int64 // per array, to place the restoring PUTs
}

// client is one closed-loop job submitter.
type client struct {
	run      *serveRun
	id       int64
	rng      *rand.Rand
	b        *spanBuf
	n        int64
	l        loop
	estimate []estimateObs
	writes   []writeObs
	scrapes  []float64
	served   []served
}

func (in *serveInst) run(d time.Duration, tr *tracer) (*loop, error) {
	var fresh float64
	if tr != nil {
		// What a cold server holds: what stopping one frees.
		in.stop()
		if err := in.start(nil, -1); err != nil {
			return nil, err
		}
		h := liveHeap()
		fresh = float64(h) - float64(in.released())
	}
	if in.srv == nil {
		// Every loop after the first starts from a cold server.
		if err := in.start(nil, -1); err != nil {
			return nil, err
		}
	}
	defer in.stop()
	in.loops++
	sr := &serveRun{
		in:      in,
		url:     in.ts.URL,
		http:    &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		appends: make([]atomic.Int64, len(in.names)),
	}
	defer sr.http.CloseIdleConnections()
	clients := make([]*client, serveClients)
	for i := range clients {
		// Each loop of a run draws its own request stream from the seed.
		id := in.loops*serveClients + int64(i)
		clients[i] = &client{run: sr, id: id, rng: rand.New(rand.NewSource(in.seed*1_000_003 + id)), b: tr.buf()}
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}(c)
	}
	wg.Wait()

	l := &loop{busy: time.Since(t0)}
	var sampled []estimateObs
	var writes []writeObs
	var scrapes []float64
	for _, c := range clients {
		l.merge(&c.l)
		sampled = append(sampled, c.estimate...)
		writes = append(writes, c.writes...)
		scrapes = append(scrapes, c.scrapes...)
	}
	for _, err := range in.check(sampled, writes) {
		l.fail("%v", err)
	}
	if tr == nil {
		return l, nil
	}

	dump := in.srv.DumpMetrics()
	reads, wr := metrics.NewHistogram(), metrics.NewHistogram()
	for _, e := range []string{"estimate", "distribution", "plan", "top"} {
		reads.Merge(dump.Endpoints[e].Latency)
	}
	for _, e := range []string{"append", "put"} {
		wr.Merge(dump.Endpoints[e].Latency)
	}
	lookups := float64(dump.CacheHits + dump.CacheMisses)
	l.layer = map[string]float64{
		"server.cache_lookups":   lookups,
		"server.cache_hit_ratio": ratio(float64(dump.CacheHits), lookups),
		"server.read_p50_ms":     reads.Quantile(0.50) * 1e3,
		"server.read_p99_ms":     reads.Quantile(0.99) * 1e3,
		"server.write_p50_ms":    wr.Quantile(0.50) * 1e3,
		"server.scrape_ms":       median(scrapes),
	}
	ws := sortedCopy(l.writes)
	_, l.layer["client.write_tail_ms"], _ = tail(ws, 0.99)
	l.layer["client.write_p50_ms"] = quantile(ws, 0.50)
	sr.http.CloseIdleConnections()
	h2 := liveHeap()
	retained := float64(h2) - float64(in.released())
	l.layer["server.heap_bytes_per_req"] = ratio(retained-fresh, float64(l.attempted))

	var all []served
	for _, c := range clients {
		all = append(all, c.served...)
	}
	return l, in.replay(all, tr.buf())
}

// step sends one request and records its outcome.
func (c *client) step() {
	in := c.run.in
	if in.mixed && c.rng.Float64() < writeShare {
		c.write()
		return
	}
	c.n++
	if c.n%scrapeEvery == 0 {
		c.scrape()
	}
	a := c.rng.Intn(len(in.names))
	sub := c.key()
	prefix := c.run.url + "/v1/arrays/" + in.names[a]
	var method, url, name string
	var body []byte
	var kind byte
	switch r := c.rng.Float64(); {
	case r < estimateShare:
		method, url, name, kind = http.MethodGet, prefix+"/estimate?sub="+sub, "server.estimate", 'e'
	case r < estimateShare+distributionShare:
		method, url, name, kind = http.MethodGet, prefix+"/distribution?sub="+sub, "server.distribution", 'd'
	case r < estimateShare+distributionShare+planShare:
		req := server.PlanRequest{Sub: sub, Nodes: planNodes, Scheduler: planSchedulers[c.n%int64(len(planSchedulers))]}
		body, _ = json.Marshal(req) // a struct of strings and ints always marshals
		method, url, name, kind = http.MethodPost, prefix+"/plan", "server.plan", 'p'
	default:
		method, url, name = http.MethodGet, prefix+"/top?n=10", "server.top"
	}
	status, reply, dt, err := c.do(name, method, url, body)
	c.l.attempted++
	if err == nil {
		err = validReply(status, reply)
	}
	if err != nil {
		c.l.fail("%s %s: %v", method, url, err)
		return
	}
	c.l.ops = append(c.l.ops, ms(dt))
	if c.b != nil && kind != 0 {
		c.served = append(c.served, served{array: a, sub: sub, kind: kind})
	}
	if kind == 'e' && c.n%checkEvery == 0 {
		var er estimateReply
		if err := json.Unmarshal(reply, &er); err != nil || er.Sub != sub {
			c.l.fail("estimate %s on %s: unreadable reply %q", sub, in.names[a], reply)
			return
		}
		c.estimate = append(c.estimate, estimateObs{array: a, reply: er})
	}
}

// key draws a sub-dataset key: a Zipf-popular movie, or now and then
// one that is in no array.
func (c *client) key() string {
	if c.rng.Float64() < absentShare {
		return fmt.Sprintf("absent-%03d", c.rng.Intn(64))
	}
	return gen.MovieID(c.run.in.keys.Draw(c.rng))
}

// do sends one request and reads the whole reply.
func (c *client) do(name, method, url string, body []byte) (int, []byte, time.Duration, error) {
	s := c.b.begin(name, c.id<<32|c.n, -1)
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	res, err := c.run.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err := io.ReadAll(res.Body)
	res.Body.Close()
	dt := time.Since(t0)
	c.b.end(s, 1, int64(len(reply)))
	return res.StatusCode, reply, dt, err
}

// validReply accepts a 200 with a JSON body.
func validReply(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if !json.Valid(body) {
		return fmt.Errorf("invalid JSON body %q", body)
	}
	return nil
}

// scrape fetches the Prometheus exposition and checks its grammar.
func (c *client) scrape() {
	status, body, dt, err := c.do("server.Scrape", http.MethodGet, c.run.url+"/metrics", nil)
	c.l.attempted++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = obs.ValidatePromText(body)
	}
	if err != nil {
		c.l.fail("GET /metrics: %v", err)
		return
	}
	c.scrapes = append(c.scrapes, ms(dt))
}

// write appends one pre-encoded block to a random array and, every
// putEvery appends to that array, PUTs its base encoding back.
func (c *client) write() {
	in := c.run.in
	a := c.rng.Intn(len(in.names))
	p := c.rng.Intn(len(in.payloads))
	url := c.run.url + "/v1/arrays/" + in.names[a]
	c.put(a, p, http.MethodPost, url+"/append", in.payloads[p])
	if c.run.appends[a].Add(1)%putEvery == 0 {
		c.put(a, -1, http.MethodPut, url, in.base[a])
	}
}

func (c *client) put(a, payload int, method, url string, body []byte) {
	name := "server.append"
	if payload < 0 {
		name = "server.put"
	}
	status, reply, dt, err := c.do(name, method, url, body)
	c.l.attempted++
	if err == nil {
		err = validReply(status, reply)
	}
	var ack struct {
		Epoch  uint64 `json:"epoch"`
		Blocks int    `json:"blocks"`
	}
	if err == nil {
		err = json.Unmarshal(reply, &ack)
	}
	if err != nil {
		c.l.fail("%s %s: %v", method, url, err)
		return
	}
	c.l.writes = append(c.l.writes, ms(dt))
	c.writes = append(c.writes, writeObs{array: a, epoch: ack.Epoch, blocks: ack.Blocks, payload: payload})
}

// check replays the acknowledged writes of each array in epoch order —
// each must extend the sequence by one and report the expected block
// count — and compares every sampled estimate with EstimateDetailed on
// the array of the epoch it was served from.
func (in *serveInst) check(obs []estimateObs, writes []writeObs) []error {
	if in.baseArr == nil {
		for _, blobs := range [][][]byte{in.base, in.payloads} {
			var arrs []*elasticmap.Array
			for _, enc := range blobs {
				arr, err := elasticmap.Decode(enc)
				if err != nil {
					return []error{fmt.Errorf("decoding a reference array: %w", err)}
				}
				arrs = append(arrs, arr)
			}
			if in.baseArr == nil {
				in.baseArr = arrs
			} else {
				in.moreArr = arrs
			}
		}
	}
	var errs []error
	// epochs[a][e-1] is array a's content at epoch e.
	epochs := make([][]*elasticmap.Array, len(in.names))
	for a := range epochs {
		epochs[a] = []*elasticmap.Array{in.baseArr[a]}
	}
	sort.Slice(writes, func(i, j int) bool {
		if writes[i].array != writes[j].array {
			return writes[i].array < writes[j].array
		}
		return writes[i].epoch < writes[j].epoch
	})
	for _, w := range writes {
		hist := epochs[w.array]
		if w.epoch != uint64(len(hist))+1 {
			errs = append(errs, fmt.Errorf("%s: write acknowledged epoch %d after epoch %d", in.names[w.array], w.epoch, len(hist)))
			continue
		}
		next := in.baseArr[w.array]
		if w.payload >= 0 {
			next = elasticmap.Merge(hist[len(hist)-1], in.moreArr[w.payload])
		}
		if w.blocks != next.Len() {
			errs = append(errs, fmt.Errorf("%s epoch %d: %d blocks acknowledged, %d expected", in.names[w.array], w.epoch, w.blocks, next.Len()))
		}
		epochs[w.array] = append(hist, next)
	}
	for _, o := range obs {
		hist := epochs[o.array]
		if o.reply.Epoch < 1 || o.reply.Epoch > uint64(len(hist)) {
			errs = append(errs, fmt.Errorf("%s: estimate served from unknown epoch %d", in.names[o.array], o.reply.Epoch))
			continue
		}
		total, hashed, bloomed := hist[o.reply.Epoch-1].EstimateDetailed(o.reply.Sub)
		if total != o.reply.Estimate || hashed != o.reply.HashedBlocks || bloomed != o.reply.BloomedBlocks {
			errs = append(errs, fmt.Errorf("%s epoch %d: estimate of %s served as %d/%d/%d, array says %d/%d/%d",
				in.names[o.array], o.reply.Epoch, o.reply.Sub, o.reply.Estimate, o.reply.HashedBlocks, o.reply.BloomedBlocks,
				total, hashed, bloomed))
		}
	}
	return errs
}

// replay times the ElasticMap and scheduler layers directly on the keys
// the loop served, and the append path on the write payloads.
func (in *serveInst) replay(all []served, b *spanBuf) error {
	root := b.begin("replay", 0, -1)
	defer b.end(root, 0, 0)
	var est, dist, plans int64
	s := b.begin("elasticmap.Estimate", 0, root)
	for _, r := range all {
		if r.kind == 'e' {
			in.baseArr[r.array].Estimate(r.sub)
			est++
		}
	}
	b.end(s, est, 0)
	s = b.begin("elasticmap.Distribution", 0, root)
	for _, r := range all {
		if r.kind == 'd' {
			in.baseArr[r.array].Distribution(r.sub)
			dist++
		}
	}
	b.end(s, dist, 0)

	topo, err := cluster.NewHomogeneous(planNodes, 1)
	if err != nil {
		return err
	}
	var picks int64
	s = b.begin("sched.Drain", 0, root)
	for _, r := range all {
		if r.kind == 'p' {
			picks += int64(drain(sched.NewDataNetPicker(planTasks(in.baseArr[r.array], r.sub), topo), planNodes))
			plans++
		}
	}
	b.end(s, picks, 0)

	if len(in.payloads) == 0 {
		return nil
	}
	// The store's append path: decode the payload, merge, re-index.
	s = b.begin("elasticmap.Append", 0, root)
	var bytes int64
	for i, enc := range in.payloads {
		more, err := elasticmap.Decode(enc)
		if err != nil {
			return err
		}
		elasticmap.NewIndex(elasticmap.Merge(in.baseArr[i%len(in.baseArr)], more))
		bytes += int64(len(enc))
	}
	b.end(s, int64(len(in.payloads)), bytes)
	if plans == 0 && est == 0 {
		return errors.New("replay found no served reads")
	}
	return nil
}

// planTasks builds the task list the plan endpoint schedules: every block
// weighted by the ElasticMap distribution, replicas spread round-robin as
// the server synthesizes them.
func planTasks(arr *elasticmap.Array, sub string) []sched.Task {
	weights := make([]int64, arr.Len())
	for _, be := range arr.Distribution(sub) {
		weights[be.Block] = be.Size
	}
	const replicas = hdfs.DefaultReplication
	stride := planNodes / replicas
	tasks := make([]sched.Task, arr.Len())
	for j := range tasks {
		locs := make([]cluster.NodeID, replicas)
		for k := range locs {
			locs[k] = cluster.NodeID((j + k*stride) % planNodes)
		}
		tasks[j] = sched.Task{Block: hdfs.BlockID(j), Index: j, Weight: weights[j], Bytes: weights[j], Locations: locs}
	}
	return tasks
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
