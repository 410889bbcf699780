package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// BenchReport is the machine-readable benchmark record of one suite run,
// seeding the performance trajectory: per-section wall-clock cost plus the
// simulated makespans the sections expose. Written as BENCH_suite.json by
// `datanet suite -json-bench`.
type BenchReport struct {
	// Workers is the worker-pool size the suite ran with.
	Workers int `json:"workers"`
	// WallSeconds is the whole suite's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Sections lists every experiment in suite order.
	Sections []BenchSection `json:"sections"`
	// HotPath carries the serving hot-path microbenches when the emitter
	// ran them (datanet-bench -json-bench).
	HotPath *HotPathBench `json:"hot_path,omitempty"`
}

// BenchSection is one experiment's benchmark record.
type BenchSection struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// SimMakespans are named simulated job makespans (seconds on the
	// simulated clock) for sections that expose them — wall-clock
	// measures the simulator, these measure the simulated cluster.
	SimMakespans map[string]float64 `json:"sim_makespans,omitempty"`
	// Counters are named integer outcomes (replica moves, bytes shipped)
	// for sections that expose them.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// WriteJSON writes the report to path (indented, trailing newline).
func (r *BenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SimMakespanner is implemented by experiment results that can report
// simulated job makespans for the benchmark emitter.
type SimMakespanner interface {
	SimMakespans() map[string]float64
}

// Counterer is implemented by experiment results that can report integer
// outcome counters (e.g. the placement sweep's moves and bytes shipped).
type Counterer interface {
	Counters() map[string]int64
}

// benchSection builds one section record from a finished experiment.
func benchSection(name string, wall time.Duration, out fmt.Stringer) BenchSection {
	sec := BenchSection{Name: name, WallSeconds: wall.Seconds()}
	if m, ok := out.(SimMakespanner); ok {
		sec.SimMakespans = m.SimMakespans()
	}
	if c, ok := out.(Counterer); ok {
		sec.Counters = c.Counters()
	}
	return sec
}

// SimMakespans reports the four analysis jobs' simulated end-to-end times
// under both schedulers (the quantity Fig. 5(a) compares).
func (r *Fig5Result) SimMakespans() map[string]float64 {
	m := make(map[string]float64, 2*len(r.Apps))
	for _, a := range r.Apps {
		m[a.App+"/baseline"] = a.Without.JobTime
		m[a.App+"/datanet"] = a.With.JobTime
	}
	return m
}

// SimMakespans reports each mitigation strategy's simulated analysis time.
func (r *ReactiveResult) SimMakespans() map[string]float64 {
	m := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		m[row.Strategy] = row.AnalysisTime
	}
	return m
}
