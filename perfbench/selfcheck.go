package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// plantedMetrics are the bounded metrics the planted busy wait must push
// past their bounds.
var plantedMetrics = []string{"lc_cpu_us_per_op"}

// runSelfcheck runs the workload twice unmodified and once with a busy
// wait as long as the first run's lc_cpu_us_per_op added to every
// measured response (so the CPU cost per op doubles). The two clean runs
// must agree within every bound of BENCHMARK.json; the planted run must
// be worse than the bound on every planted metric.
func runSelfcheck(workload string, seed uint64, seconds int, config, workdir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	var bm struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("selfcheck: BENCHMARK.json: %w", err)
	}
	child := func(plant time.Duration) (result, error) {
		exe, err := os.Executable()
		if err != nil {
			return result{}, err
		}
		args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--config", config, "--workdir", workdir}
		if plant > 0 {
			args = append(args, "--plant-delay", plant.String())
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("selfcheck run: %w", err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return result{}, fmt.Errorf("selfcheck: last line: %w", err)
		}
		return r, nil
	}
	a, err := child(0)
	if err != nil {
		return err
	}
	b, err := child(0)
	if err != nil {
		return err
	}
	plant := time.Duration(a.Metrics["lc_cpu_us_per_op"].Value * float64(time.Microsecond))
	c, err := child(plant)
	if err != nil {
		return err
	}
	// worse is how much x is worse than base, as a share of base.
	worse := func(bd bound, base, x float64) float64 {
		if base == 0 {
			return 0
		}
		if bd.Better == "higher" {
			return (base - x) / base
		}
		return (x - base) / base
	}
	planted := map[string]bool{}
	for _, n := range plantedMetrics {
		planted[n] = true
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "selfcheck %s seed %d, planted delay %v\n", workload, seed, plant)
	fmt.Fprintf(w, "%-18s %6s %12s %12s %12s %8s %8s  %s\n", "metric", "bound", "clean A", "clean B", "planted", "B vs A", "P vs A", "verdict")
	ok := true
	for _, bd := range bm.EndToEnd {
		av, bv, cv := a.Metrics[bd.Name].Value, b.Metrics[bd.Name].Value, c.Metrics[bd.Name].Value
		wb, wc := worse(bd, av, bv), worse(bd, av, cv)
		verdict := "ok"
		if wb > bd.Bound {
			verdict, ok = "CLEAN RUNS DISAGREE", false
		} else if planted[bd.Name] && wc <= bd.Bound {
			verdict, ok = "PLANT MISSED", false
		}
		fmt.Fprintf(w, "%-18s %6.2f %12.2f %12.2f %12.2f %+8.3f %+8.3f  %s\n", bd.Name, bd.Bound, av, bv, cv, wb, wc, verdict)
	}
	if !ok {
		w.Flush()
		return fmt.Errorf("selfcheck failed")
	}
	fmt.Fprintln(w, "selfcheck passed")
	return nil
}
