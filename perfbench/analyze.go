package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"datanet/internal/apps"
	"datanet/internal/experiments"
	"datanet/internal/gen"
	"datanet/internal/stats"
)

// zipfS matches the generator's popularity skew, so analysts query movies
// in proportion to how much is written about them.
const zipfS = 1.05

// deckStrata is how many keys each app gets per deck of jobs.
const deckStrata = 32

// analyzeInst is the analyst's loop: one closed-loop client submitting
// sub-dataset analysis jobs back to back through the root package API.
type analyzeInst struct {
	ds   *dataset
	apps []apps.App
	cdf  []float64 // Zipf popularity CDF over movie ranks
	rng  *rand.Rand
	jobs int64
	refs map[string]uint64 // app/sub → reference output digest
}

func setupAnalyze(p experiments.MovieParams, seed int64, b *spanBuf) (instance, error) {
	root := b.begin("setup", 0, -1)
	defer b.end(root, 0, 0)
	ds, err := buildDataset(p, []string{"reviews.log"}, b, root)
	if err != nil {
		return nil, err
	}
	z := stats.NewZipf(p.Movies, zipfS)
	cdf := make([]float64, z.N())
	sum := 0.0
	for i := range cdf {
		sum += z.Weight(i)
		cdf[i] = sum
	}
	return &analyzeInst{
		ds:   ds,
		apps: apps.All(),
		cdf:  cdf,
		rng:  rand.New(rand.NewSource(seed)),
		refs: map[string]uint64{},
	}, nil
}

type job struct {
	sub string
	app apps.App
}

// deal draws the next deck of jobs: each of the paper's four apps on
// deckStrata movies drawn from the popularity distribution by stratified
// sampling, shuffled. One popular movie costs as much as hundreds of rare
// ones, so independent draws would make each run's mix, and with it every
// figure, depend on how many popular movies the seed happened to draw; a
// deck holds the mix fixed while the seed still picks the keys and order.
func (a *analyzeInst) deal() []job {
	deck := make([]job, 0, deckStrata*len(a.apps))
	for _, app := range a.apps {
		for i := 0; i < deckStrata; i++ {
			u := (float64(i) + a.rng.Float64()) / deckStrata
			rank := min(sort.SearchFloat64s(a.cdf, u), len(a.cdf)-1)
			deck = append(deck, job{gen.MovieID(rank), app})
		}
	}
	a.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// run plays whole decks until the jobs have taken d.
func (a *analyzeInst) run(d time.Duration, tr *tracer) (*loop, error) {
	b := tr.buf()
	l := &loop{}
	var subs []string
	for l.busy < d {
		for _, j := range a.deal() {
			a.jobs++
			id := a.jobs
			root := b.begin("job", id, -1)
			s := b.begin("mapreduce.Run", id, root)
			t0 := time.Now()
			res, err := analysisJob(a.ds, j.sub, j.app, true).Run()
			dt := time.Since(t0)
			l.busy += dt
			l.attempted++
			if err != nil {
				l.fail("job %d (%s on %s): %v", id, j.app.Name(), j.sub, err)
				b.end(root, 0, 0)
				continue
			}
			b.end(s, int64(len(res.Tasks)), 0)
			l.ops = append(l.ops, ms(dt))
			if err := a.check(j.sub, j.app, res.Output); err != nil {
				l.fail("job %d: %v", id, err)
			}
			if b != nil {
				subs = append(subs, j.sub)
				if err := replayJob(a.ds, j.sub, j.app, b, root); err != nil {
					return nil, err
				}
			}
			b.end(root, 0, 0)
		}
	}
	root := b.begin("replay", 0, -1)
	replayKeys(a.ds.metas[0].Array(), subs, b, root)
	b.end(root, 0, 0)
	return l, nil
}

// check compares a job's output with a sequential Map/Reduce of the same
// app over the sub-dataset's records, computed once per (app, sub).
func (a *analyzeInst) check(sub string, app apps.App, out map[string]string) error {
	key := app.Name() + "/" + sub
	want, ok := a.refs[key]
	if !ok {
		want = digest(mapReduce(app, a.ds.subRecords(sub), nil, -1))
		a.refs[key] = want
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s on %s: output digest %016x, sequential reference %016x", app.Name(), sub, got, want)
	}
	return nil
}

func (a *analyzeInst) close() {}
