package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchConfig is perfbench/workloads.json: the fixed parameters of every
// workload, read at start so that the recorded numbers are the ones run.
type benchConfig struct {
	// Host is the machine shape the recorded rates were chosen on; a run
	// on another shape is flagged in its header.
	Host struct {
		NProc      int `json:"nproc"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"host"`
	// SetupRepeats is how many times a run builds and preloads a server;
	// setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// Phases gives each phase's length as a share of --seconds.
	Phases struct {
		Warmup  float64 `json:"warmup"`
		LCOnly  float64 `json:"lc_only"`
		Nominal float64 `json:"nominal"`
		Peak    float64 `json:"peak"`
		Probe   float64 `json:"ladder_probe"`
		BE      float64 `json:"be_alone"`
		Replay  float64 `json:"trace_replay"`
	} `json:"phases"`
	Workloads []workload `json:"workloads"`
}

// workload is one traffic mix and server shape.
type workload struct {
	Name string `json:"name"`

	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`
	QuantumUS int    `json:"quantum_us"`
	WAL       string `json:"wal"` // "off" or "group"
	// SnapshotEvery is the WAL snapshot cadence in logged SETs.
	SnapshotEvery int `json:"snapshot_every"`
	// StoreLogBytes is the server's total MICA log, split evenly over
	// shards. It is sized so the circular log never wraps in a run.
	StoreLogBytes int `json:"store_log_bytes"`

	Keys       int     `json:"keys"`
	ValueBytes int     `json:"value_bytes"`
	ZipfS      float64 `json:"zipf_s"`
	SetShare   float64 `json:"set_share"`
	// LCConns is the number of pipelined connections carrying LC traffic.
	LCConns int `json:"lc_conns"`
	// BEKB, when positive, runs a closed-loop COMPRESS <BEKB> stream on
	// its own connection beside the nominal, peak and ladder phases
	// (colocation).
	BEKB int `json:"be_kb"`
	// BEAloneKB is the COMPRESS size of the closing BE-alone phase that
	// LC-only workloads use for be_kb_per_cpu_s.
	BEAloneKB int `json:"be_alone_kb"`

	// LCOnlyRate is the rate of the LC-only phase that measures CPU per op.
	LCOnlyRate  float64   `json:"lc_only_rate_ops"`
	NominalRate float64   `json:"nominal_rate_ops"`
	PeakRate    float64   `json:"peak_rate_ops"`
	Ladder      []float64 `json:"ladder_ops"`
	// LimitUS is the LC p99 latency limit of the ladder.
	LimitUS int `json:"latency_limit_us"`
}

func (w *workload) quantum() time.Duration { return time.Duration(w.QuantumUS) * time.Microsecond }
func (w *workload) limit() int64           { return int64(w.LimitUS) * 1000 }

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read config: %w", err)
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if c.SetupRepeats < 1 {
		return nil, fmt.Errorf("%s: setup_repeats must be at least 1", path)
	}
	for i := range c.Workloads {
		w := &c.Workloads[i]
		if w.Shards < 1 || w.Workers < 1 || w.Keys < 1 || w.LCConns < 1 || len(w.Ladder) == 0 {
			return nil, fmt.Errorf("%s: workload %q is incomplete", path, w.Name)
		}
		if w.WAL != "off" && w.WAL != "group" {
			return nil, fmt.Errorf("%s: workload %q: wal must be off or group", path, w.Name)
		}
	}
	return &c, nil
}

func (c *benchConfig) find(name string) (*workload, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
