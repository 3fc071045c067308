package liveserver

import (
	"math"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/preemptible"
)

// Hot-path benchmark pair: the parse and encode sides of the request
// path, plus the full in-process GET/SET round trip. Run with
//
//	go test -bench BenchmarkHotPath -benchmem ./internal/liveserver/
//
// These are the ns/op and allocs/op figures the planned zero-alloc
// parser/encoder rewrite must beat; TestHotPathAllocCeilings pins the
// allocs/op exactly, and perfbench (bash perfbench/run.sh --trace 1)
// measures the same path under open-loop load. Today the parse path
// pays strings.Fields and per-token slices; the encode path pays
// fmt/json.

func newBenchServer(tb testing.TB, shards int) *Server {
	tb.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	s := New(rt, Config{Shards: shards})
	tb.Cleanup(s.Close)
	return s
}

// TestHotPathAllocCeilings holds each hot-path call to its exact
// allocs/op today, so any added allocation fails here. Lower a ceiling
// when a change removes allocations; never raise one to make a change
// pass. Each request runs on a fresh task goroutine. When the scheduler
// leaves finished task goroutines queued instead of letting them exit,
// every later request pays for a new goroutine and channel waiter
// (+2 allocs/op) until they drain, and the process-wide malloc counter
// also sees the server's background loops. So each window starts after
// a sleep that lets the queued goroutines exit, and the least of three
// windows is the request path's own count, which a real per-op
// allocation raises in every window.
func TestHotPathAllocCeilings(t *testing.T) {
	s := newBenchServer(t, 1)
	handle := func(line, want string) func() {
		return func() {
			if resp := s.HandleLine(line); resp != want {
				t.Fatalf("%s: %q, want %q", line, resp, want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ParseLine", 1, func() {
			if _, errLine := ParseLine("SET key-123 value-payload D1754600000000000 A1"); errLine != "" {
				t.Fatal(errLine)
			}
		}},
		{"SET", 15, handle("SET bench-key bench-value", "OK")},
		{"GET", 17, handle("GET bench-key", "VALUE bench-value")},
	} {
		tc.run() // warm-up: the GET row reads the SET row's key
		got := math.Inf(1)
		for i := 0; i < 3; i++ {
			time.Sleep(time.Millisecond)
			got = min(got, testing.AllocsPerRun(200, tc.run))
		}
		if got > tc.max {
			t.Errorf("%s: %v allocs/op, ceiling %v", tc.name, got, tc.max)
		}
	}
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
