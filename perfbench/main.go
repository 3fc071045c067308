// Command perfbench is the repository's benchmark: a seeded, open-loop
// driver that runs one workload against an in-process liveserver over
// loopback TCP, checks every response against a model of the store, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload kv_read_mostly --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload kv_colocated --seed 1 --seconds 30 --selfcheck
//
// The workloads, their fixed rates, ladders, limits, key counts, store
// sizes and server shapes are in perfbench/workloads.json; every phase
// length is a share of --seconds. One run:
//
//  1. builds the server and preloads every key over the wire, several
//     times (setup_s is the median), reopening it for a WAL workload so
//     recovery is timed;
//  2. runs LC traffic alone at a fixed rate in slices and reports the
//     median process CPU time per LC op (lc_cpu_us_per_op);
//  3. starts the closed-loop COMPRESS stream of a colocated workload and
//     runs the nominal-rate phase, the peak-rate phase and a bisection
//     of the fixed rate ladder (open-loop latency, timed from each
//     request's due time);
//  4. reports BE kilobytes completed per process CPU-second
//     (be_kb_per_cpu_s): beside the nominal LC stream when colocated,
//     else in a closing BE-only phase; and the peak resident set over
//     the traffic (rss_peak_mb);
//  5. checks the store was sized so no log wrapped and no index entry was
//     evicted, and for a WAL workload reopens the server and reads every
//     key back.
//
// The bounded end-to-end metrics are CPU-normalised on purpose. On a
// shared virtual machine the hypervisor steals CPU in bursts lasting
// seconds, and the open-loop latencies and rates move several-fold
// between runs of the same code, far beyond any bound a change could be
// held to. CPU time excludes stolen time. The latencies are still
// measured on every run and printed as "# wall.*" lines, and a traced
// run reports them as per-layer metrics.
//
// --selfcheck runs one workload twice unmodified and once with a planted
// busy wait on every response, and checks the bounds in BENCHMARK.json
// pass the clean pair and flag the planted run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload name from the config, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated request stream")
	seconds := flag.Int("seconds", 30, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for WAL files and span dumps")
	config := flag.String("config", "perfbench/workloads.json", "workload config")
	plant := flag.Duration("plant-delay", 0, "busy wait added to every measured response (regression self-check)")
	selfcheck := flag.Bool("selfcheck", false, "run the planted-regression self-check on --workload")
	flag.Parse()

	cfg, err := loadConfig(*config)
	if err != nil {
		fatal(err)
	}
	if *workloadName == "all" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	w, err := cfg.find(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	if *selfcheck {
		if err := runSelfcheck(*workloadName, *seed, *seconds, *config, *workdir); err != nil {
			fatal(err)
		}
		return
	}

	// A wedged server must not hold the run past its time limit.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	host := readHost(cfg, *workdir)
	o := runOpts{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, workdir: *workdir, plant: *plant}
	started := time.Now()
	res, err := run(cfg, w, o)
	if err != nil {
		fatal(err)
	}

	header := map[string]any{
		"workload": w.Name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "phase_s": res.phaseS, "ladder_probes": res.ladder,
		"driver_late_p99_us": res.lateP99, "wall_s": time.Since(started).Seconds(),
	}
	if *plant > 0 {
		header["planted_delay"] = plant.String()
	}
	hb, _ := json.Marshal(header) // plain maps of numbers and strings
	fmt.Printf("# header %s\n", hb)
	if !host.ShapeMatches {
		fmt.Printf("# host shape nproc=%d GOMAXPROCS=%d differs from the recorded %d/%d: do not compare these figures\n",
			host.NProc, host.GOMAXPROCS, cfg.Host.NProc, cfg.Host.GOMAXPROCS)
	}

	metrics := res.e2e
	if o.trace {
		metrics = res.layer
	}
	for _, n := range sortedNames(metrics) {
		fmt.Printf("%-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if !o.trace {
		for _, n := range sortedNames(res.layer) {
			if strings.HasPrefix(n, "wall.") {
				fmt.Printf("# %-40s %14.4f %s\n", n, res.layer[n].Value, res.layer[n].Unit)
			}
		}
	}
	for _, m := range res.t.firstWrong {
		fmt.Printf("# check failed: %s\n", m)
	}
	correct := res.t.wrong.Load() == 0
	last, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.t.attempted.Load(),
		"failed":    res.t.failed.Load(),
		"metrics":   metrics,
	})
	fmt.Println(string(last))
	if !correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process with this
// process's flags, and fails if any of them does.
func runAll(cfg *benchConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range cfg.Workloads {
		args := []string{"--workload", w.Name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		fmt.Printf("# workload %s\n", w.Name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runLimit bounds one run's wall time.
const runLimit = 170 * time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// sortedNames lists a metric map's keys in order.
func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
