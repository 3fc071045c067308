package liveserver

import (
	"strconv"
	"sync/atomic"
	"testing"

	"repro/preemptible"
)

// Hot-path benchmark pair: the parse and encode sides of the request
// path, plus the full in-process GET/SET round trip. Run with
//
//	go test -bench BenchmarkHotPath -benchmem ./internal/liveserver/
//
// These are the allocs/op baselines the perf-validation harness
// (internal/perfval) records into BENCH_<n>.json and gates with
// thresholds — the numbers the planned zero-alloc parser/encoder
// rewrite must beat. Today the parse path pays strings.Fields and
// per-token slices; the encode path pays fmt/json. Keep the pair in
// sync with perfval's hot-path probes.

func newBenchServer(b *testing.B, shards int) *Server {
	b.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	s := New(rt, Config{Shards: shards})
	b.Cleanup(s.Close)
	return s
}

func BenchmarkHotPathParseLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, errLine := ParseLine("SET key-123 value-payload D1754600000000000 A1"); errLine != "" {
			b.Fatal(errLine)
		}
	}
}

func BenchmarkHotPathGET(b *testing.B) {
	s := newBenchServer(b, 1)
	if resp := s.HandleLine("SET bench-key bench-value"); resp != "OK" {
		b.Fatalf("seed SET: %q", resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.HandleLine("GET bench-key"); resp != "VALUE bench-value" {
			b.Fatalf("GET: %q", resp)
		}
	}
}

// BenchmarkHotPathGETParallel runs GETs from every P at once over 4
// shards, each goroutine cycling through distinct keys from its own
// offset: the request path must hold no lock shared across shards, so
// ns/op should not grow with parallelism.
func BenchmarkHotPathGETParallel(b *testing.B) {
	s := newBenchServer(b, 4)
	const nkeys = 64
	lines := make([]string, nkeys)
	want := make([]string, nkeys)
	for i := range lines {
		key := "bench-key-" + strconv.Itoa(i)
		if resp := s.HandleLine("SET " + key + " v" + key); resp != "OK" {
			b.Fatalf("seed SET: %q", resp)
		}
		lines[i], want[i] = "GET "+key, "VALUE v"+key
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7
		for pb.Next() {
			k := i % nkeys
			if resp := s.HandleLine(lines[k]); resp != want[k] {
				b.Errorf("GET: %q", resp)
				return
			}
			i++
		}
	})
}

func BenchmarkHotPathSET(b *testing.B) {
	s := newBenchServer(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.HandleLine("SET bench-key bench-value"); resp != "OK" {
			b.Fatalf("SET: %q", resp)
		}
	}
}

func BenchmarkHotPathStatsV2Encode(b *testing.B) {
	s := newBenchServer(b, 1)
	s.HandleLine("SET bench-key bench-value")
	s.HandleLine("GET bench-key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if line := s.HandleLine("STATS2"); len(line) < len("STATS2 {") {
			b.Fatalf("STATS2: %q", line)
		}
	}
}

func BenchmarkHotPathStatsV1Encode(b *testing.B) {
	s := newBenchServer(b, 1)
	s.HandleLine("SET bench-key bench-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if line := s.HandleLine("STATS"); len(line) == 0 {
			b.Fatal("empty STATS")
		}
	}
}
