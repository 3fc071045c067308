// STATS v2 — the server's structured metrics plane.
//
// One schema-versioned JSON document carries every series the server
// exports — per-class admission counters, latency quantiles, pool
// scheduling and WAL counters — both as group totals and per shard, so
// a dashboard, the soak's conservation checker or perfbench's traced run
// reads exactly the numbers the server exports.
//
// There is one counter plane. Every admission counter has a single
// source, the shard's shard.ClassCounters; the server keeps no copy.
// The group totals are derived from the shard counters here, and the
// flat key=value STATS (v1) line is rendered from this document. The
// only counters the server keeps itself are the four connection-plane
// ones that fire before any shard is chosen.
//
// The same document is reachable two ways:
//
//   - the wire: "STATS2" answers "STATS2 <compact JSON>" on the normal
//     request path (answered inline, off the pools, like STATS);
//   - HTTP: Server.MetricsHandler serves it (indented) at /metrics via
//     preemkv's -metrics flag, for curl/Prometheus-style scraping.
//
// Invariant: every counter in Totals equals the sum of that counter
// over PerShard, exactly — Totals is computed from the same per-shard
// snapshots the blocks show, and shard counters survive restarts. The
// latency quantiles in Totals come from a true histogram merge across
// shards (stats.Histogram.Merge), not a max.
package liveserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/brownout"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/preemptible"
)

// MetricsSchemaVersion identifies the STATS v2 document layout. Bump it
// on any field removal or semantic change; additions are backward
// compatible and do not bump. Schema 3 added the durability plane
// (WALSeries: wal_appends, wal_fsyncs, wal_recovered_records,
// snapshot_count, recovery_ms) — a bump rather than a silent addition
// because perf gates now read those fields and must not run against a
// server that doesn't export them.
const MetricsSchemaVersion = 3

// statsV2Prefix frames the wire encoding of a MetricsV2 document.
const statsV2Prefix = "STATS2 "

// ClassSeries is one service class's metric series: the admission
// counters, converted from shard.ClassCounters (Cancelled sums its two
// cancel stages), plus the class's completed-request latency quantiles
// in microseconds.
type ClassSeries struct {
	Requests         uint64 `json:"requests"`
	Completed        uint64 `json:"completed"`
	RejectedNormal   uint64 `json:"rejected_normal"`
	RejectedBrownout uint64 `json:"rejected_brownout"`
	RejectedShed     uint64 `json:"rejected_shed"`
	Timeouts         uint64 `json:"timeouts"`
	Evicted          uint64 `json:"evicted"`
	Failed           uint64 `json:"failed"`
	Unavailable      uint64 `json:"unavailable"`
	ExpiredQueued    uint64 `json:"expired_queued"`
	ExpiredExecuting uint64 `json:"expired_executing"`
	Cancelled        uint64 `json:"cancelled"`
	Reattempts       uint64 `json:"reattempts"`

	// Latency quantiles of completed requests, microseconds (0 when the
	// class has completed nothing).
	LatencyCount uint64 `json:"latency_count"`
	P50Micros    int64  `json:"p50_us"`
	P99Micros    int64  `json:"p99_us"`
	P999Micros   int64  `json:"p999_us"`
	MaxMicros    int64  `json:"max_us"`
}

// add folds o's counters into s (latency fields are set separately,
// from merged histograms).
func (s *ClassSeries) add(o ClassSeries) {
	s.Requests += o.Requests
	s.Completed += o.Completed
	s.RejectedNormal += o.RejectedNormal
	s.RejectedBrownout += o.RejectedBrownout
	s.RejectedShed += o.RejectedShed
	s.Timeouts += o.Timeouts
	s.Evicted += o.Evicted
	s.Failed += o.Failed
	s.Unavailable += o.Unavailable
	s.ExpiredQueued += o.ExpiredQueued
	s.ExpiredExecuting += o.ExpiredExecuting
	s.Cancelled += o.Cancelled
	s.Reattempts += o.Reattempts
}

// rejected sums the fast-rejects over the brownout states that issued
// them.
func (s ClassSeries) rejected() uint64 {
	return s.RejectedNormal + s.RejectedBrownout + s.RejectedShed
}

// PoolSeries is the scheduling-plane slice of the document: the
// preemptible pool counters that accumulate across shard generations.
type PoolSeries struct {
	Submitted    uint64 `json:"submitted"`
	Completed    uint64 `json:"completed"`
	Preemptions  uint64 `json:"preemptions"`
	Shed         uint64 `json:"shed"`
	Failed       uint64 `json:"failed"`
	DegradedRuns uint64 `json:"degraded_runs"`
}

func (p *PoolSeries) add(o PoolSeries) {
	p.Submitted += o.Submitted
	p.Completed += o.Completed
	p.Preemptions += o.Preemptions
	p.Shed += o.Shed
	p.Failed += o.Failed
	p.DegradedRuns += o.DegradedRuns
}

// WALSeries is the durability-plane slice of the document (schema 3):
// per-shard write-ahead-log and snapshot counters, accumulated across
// shard generations like every other counter. All zero when the server
// runs without -wal.
type WALSeries struct {
	WalAppends          uint64 `json:"wal_appends"`
	WalFsyncs           uint64 `json:"wal_fsyncs"`
	WalRecoveredRecords uint64 `json:"wal_recovered_records"`
	SnapshotCount       uint64 `json:"snapshot_count"`
	// RecoveryMillis is cumulative wall time spent replaying
	// snapshot+log across all of this shard's rebuilds.
	RecoveryMillis int64 `json:"recovery_ms"`
}

func (w *WALSeries) add(o WALSeries) {
	w.WalAppends += o.WalAppends
	w.WalFsyncs += o.WalFsyncs
	w.WalRecoveredRecords += o.WalRecoveredRecords
	w.SnapshotCount += o.SnapshotCount
	w.RecoveryMillis += o.RecoveryMillis
}

// ShardSeries is one shard's block of the document.
type ShardSeries struct {
	Shard      int                    `json:"shard"`
	Health     string                 `json:"health"`
	Generation uint64                 `json:"generation"`
	Restarts   uint64                 `json:"restarts"`
	Brownout   string                 `json:"brownout"`
	Classes    map[string]ClassSeries `json:"classes"` // keyed "lc", "be"
	Pool       PoolSeries             `json:"pool"`
	WAL        WALSeries              `json:"wal"`
}

// MetricsV2 is the STATS v2 document.
type MetricsV2 struct {
	Schema int     `json:"schema"`
	State  string  `json:"state"` // most degraded shard's brownout state
	Load   float64 `json:"load"`  // highest smoothed load across shards
	Shards int     `json:"shards"`

	// Connection-plane counters that exist only at group level (they
	// fire before any shard is chosen). IdleClosed and WriteTimeouts
	// are the connection-hardening reapers (Config.IdleTimeout /
	// Config.WriteTimeout); additive since schema 2, no bump.
	ShedConns     uint64 `json:"shed_conns"`
	LineTooLong   uint64 `json:"line_too_long"`
	IdleClosed    uint64 `json:"idle_closed"`
	WriteTimeouts uint64 `json:"write_timeouts"`

	// Totals is the per-class series summed over PerShard (latency
	// quantiles from a histogram merge). Keyed "lc", "be".
	Totals map[string]ClassSeries `json:"totals"`
	// Pool is the scheduling counters summed over PerShard.
	Pool PoolSeries `json:"pool"`
	// WAL is the durability counters summed over PerShard.
	WAL WALSeries `json:"wal"`

	PerShard []ShardSeries `json:"per_shard"`
}

// classSeries converts one shard's counters + latency snapshot.
func classSeries(c shard.ClassCounters, lat stats.Snapshot) ClassSeries {
	return ClassSeries{
		Requests:         c.Requests,
		Completed:        c.Completed,
		RejectedNormal:   c.Rejected[brownout.Normal],
		RejectedBrownout: c.Rejected[brownout.Brownout],
		RejectedShed:     c.Rejected[brownout.Shed],
		Timeouts:         c.Timeouts,
		Evicted:          c.Evicted,
		Failed:           c.Failed,
		Unavailable:      c.Unavailable,
		ExpiredQueued:    c.ExpiredQueued,
		ExpiredExecuting: c.ExpiredExecuting,
		Cancelled:        c.CancelledQueued + c.CancelledExecuting,
		Reattempts:       c.Reattempts,
		LatencyCount:     lat.Count,
		P50Micros:        lat.Median,
		P99Micros:        lat.P99,
		P999Micros:       lat.P999,
		MaxMicros:        lat.Max,
	}
}

func poolSeries(st preemptible.PoolStats) PoolSeries {
	return PoolSeries{
		Submitted:    st.Submitted,
		Completed:    st.Completed,
		Preemptions:  st.Preemptions,
		Shed:         st.Shed,
		Failed:       st.Failed,
		DegradedRuns: st.DegradedRuns,
	}
}

// MetricsV2 snapshots the full STATS v2 document. Totals are computed
// from the same per-shard snapshots as the per-shard blocks, so "every
// total equals the sum over shards" holds exactly in any single
// returned document, latency counts included.
func (s *Server) MetricsV2() MetricsV2 {
	g := s.group
	m := MetricsV2{
		Schema:        MetricsSchemaVersion,
		State:         s.BrownoutState().String(),
		Shards:        g.N(),
		ShedConns:     s.shedConns.Load(),
		LineTooLong:   s.lineTooLong.Load(),
		IdleClosed:    s.idleClosed.Load(),
		WriteTimeouts: s.writeTimeouts.Load(),
		Totals:        make(map[string]ClassSeries, preemptible.NumClasses),
		PerShard:      make([]ShardSeries, 0, g.N()),
	}

	merged := [preemptible.NumClasses]*stats.Histogram{}
	totals := [preemptible.NumClasses]ClassSeries{}
	for c := range merged {
		merged[c] = stats.NewHistogram()
	}
	lat := stats.NewHistogram() // one shard's class histogram, copied once
	for i := 0; i < g.N(); i++ {
		sh := g.Shard(i)
		if l := sh.Brownout().Load(); l > m.Load {
			m.Load = l
		}
		cs := sh.Counters()
		wst := sh.WALStats()
		block := ShardSeries{
			Shard:      i,
			Health:     sh.Health().String(),
			Generation: sh.Generation(),
			Restarts:   g.Restarts(i),
			Brownout:   sh.BrownoutState().String(),
			Classes:    make(map[string]ClassSeries, preemptible.NumClasses),
			Pool:       poolSeries(sh.Stats()),
			WAL: WALSeries{
				WalAppends:          wst.Appends,
				WalFsyncs:           wst.Fsyncs,
				WalRecoveredRecords: wst.RecoveredRecords,
				SnapshotCount:       wst.Snapshots,
				RecoveryMillis:      wst.Recovery.Milliseconds(),
			},
		}
		for c := 0; c < preemptible.NumClasses; c++ {
			// One copy of the shard's histogram feeds both its block and
			// the totals, so a completion landing mid-snapshot reaches
			// both or neither.
			class := preemptible.Class(c)
			lat.Reset()
			sh.MergeLatency(class, lat)
			series := classSeries(cs[c], lat.Snapshot())
			block.Classes[class.String()] = series
			totals[c].add(series)
			merged[c].Merge(lat)
		}
		m.Pool.add(block.Pool)
		m.WAL.add(block.WAL)
		m.PerShard = append(m.PerShard, block)
	}
	for c := 0; c < preemptible.NumClasses; c++ {
		snap := merged[c].Snapshot()
		totals[c].LatencyCount = snap.Count
		totals[c].P50Micros = snap.Median
		totals[c].P99Micros = snap.P99
		totals[c].P999Micros = snap.P999
		totals[c].MaxMicros = snap.Max
		m.Totals[preemptible.Class(c).String()] = totals[c]
	}
	return m
}

// EncodeMetricsV2 renders a document as its one-line wire form:
// "STATS2 " + compact JSON. encoding/json never emits raw newlines, so
// the result is always a single protocol line.
func EncodeMetricsV2(m MetricsV2) string {
	b, err := json.Marshal(m)
	if err != nil {
		// Every field is a plain number/string/map/slice; Marshal cannot
		// fail. Keep the line shape even if it somehow does.
		return statsV2Prefix + `{"schema":0}`
	}
	return statsV2Prefix + string(b)
}

// DecodeMetricsV2 parses a wire line produced by EncodeMetricsV2 (or a
// bare JSON document, as served at /metrics). It rejects unknown schema
// versions so a gate never silently compares incompatible layouts.
func DecodeMetricsV2(line string) (MetricsV2, error) {
	var m MetricsV2
	payload := strings.TrimPrefix(strings.TrimSpace(line), strings.TrimSpace(statsV2Prefix))
	if err := json.Unmarshal([]byte(payload), &m); err != nil {
		return MetricsV2{}, fmt.Errorf("liveserver: bad STATS2 payload: %w", err)
	}
	if m.Schema != MetricsSchemaVersion {
		return MetricsV2{}, fmt.Errorf("liveserver: STATS2 schema %d, want %d", m.Schema, MetricsSchemaVersion)
	}
	return m, nil
}

// statsV2Line answers the STATS2 wire command.
func (s *Server) statsV2Line() string {
	return EncodeMetricsV2(s.MetricsV2())
}

// MetricsHandler serves the STATS v2 document as indented JSON — the
// /metrics endpoint preemkv mounts when -metrics is set. The payload is
// byte-for-byte the same document the STATS2 wire command carries
// (modulo indentation), so a scraper and the wire plane can never
// disagree about what a counter means.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := json.MarshalIndent(s.MetricsV2(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n')) //nolint:errcheck
	})
}
