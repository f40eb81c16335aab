// Command fleetbench is the repository's end-to-end benchmark. It composes the
// fleet daemon's pipeline in-process from the same exported calls
// cmd/dbcatcherd makes (simulated units or loopback Prometheus exporters ->
// fleet.Monitor over server.Server-wrapped monitor.Online units ->
// store.FleetPersister -> detect.Explain -> incident.Aggregator ->
// server.Fleet API), drives it closed loop for --seconds, checks its verdicts
// against independent references, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash fleetbench/run.sh --workload replay-32 --seed 1 --seconds 35 --trace 0
//
// See README.md in this directory for the metric -> layer -> workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// dbs is the database count of every unit: one primary and four replicas,
// the paper's unit shape.
const dbs = 5

// spec is one workload: one input set the benchmark drives through the pipeline. A
// run repeats passes; every pass boots a fresh pipeline and replays the
// same generated ticks from tick 0, so passes are comparable and the
// verdict stream of each pass can be checked against one reference.
type spec struct {
	name  string
	units int
	ticks int // ticks per pass
	// scrape feeds the fleet through one loopback Prometheus exporter per
	// database, read with fleet.Monitor.ScrapeRound; otherwise samples
	// are pushed from memory with fleet.Monitor.Push.
	scrape bool
	// wal journals verdicts and incident rounds through a FleetPersister.
	wal bool
	// restartAt > 0 boots every pass on a WAL an untimed earlier run wrote
	// through this tick; the pass catches up to it and then runs live
	// ticks with the dashboard client polling between them. Otherwise the
	// client polls the idle daemon after the pass.
	restartAt int
}

var workloads = []spec{
	{name: "replay-32", units: 32, ticks: 2000, wal: true},
	{name: "scrape-prom-8", units: 8, ticks: 500, scrape: true},
	{name: "restart-dashboard-32", units: 32, ticks: 3000, wal: true, restartAt: 2000},
}

// metric is one reported value; the JSON shape is the result contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: replay-32, scrape-prom-8 or restart-dashboard-32")
	seed := flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for WAL data, removed on exit")
	flag.Parse()

	var w *spec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "data-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	dir, _ = filepath.Abs(dir)
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(w, *seed, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes a readable table, then the JSON result as the last
// line of standard output.
func printResult(w *spec, seed uint64, res *result) {
	fmt.Printf("fleetbench %s seed %d  GOMAXPROCS=%d num_cpu=%d\n", w.name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  failed/attempted operations: %d/%d  correct=%v\n", res.Failed, res.Attempted, res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
