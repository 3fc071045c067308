package liveserver

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/brownout"
	"repro/internal/chaos"
	"repro/internal/shard"
	"repro/preemptible"
)

// keysOn generates n distinct keys that route to the given shard.
func keysOn(t *testing.T, g *shard.Group, shardIdx, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d keys for shard %d", n, shardIdx)
		}
		k := fmt.Sprintf("key-%d-%d", shardIdx, i)
		if g.Route([]byte(k)) == shardIdx {
			out = append(out, k)
		}
	}
	return out
}

// addCC folds src into dst field by field.
func addCC(dst *shard.ClassCounters, src shard.ClassCounters) {
	dst.Requests += src.Requests
	for i := range dst.Rejected {
		dst.Rejected[i] += src.Rejected[i]
	}
	dst.Timeouts += src.Timeouts
	dst.Evicted += src.Evicted
	dst.Failed += src.Failed
	dst.Unavailable += src.Unavailable
	dst.ExpiredQueued += src.ExpiredQueued
	dst.ExpiredExecuting += src.ExpiredExecuting
	dst.CancelledQueued += src.CancelledQueued
	dst.CancelledExecuting += src.CancelledExecuting
	dst.Reattempts += src.Reattempts
	dst.Completed += src.Completed
}

// checkConservation asserts the counter invariant: every group-total
// admission counter in the STATS2 document equals the sum of the
// corresponding per-shard counter over all shards — exactly, including
// across shard restarts (shard counters live outside the pools a
// restart throws away).
func checkConservation(t *testing.T, s *Server) {
	t.Helper()
	g := s.Group()
	var sum [preemptible.NumClasses]shard.ClassCounters
	for i := 0; i < g.N(); i++ {
		cs := g.Shard(i).Counters()
		for c := range sum {
			addCC(&sum[c], cs[c])
		}
	}
	totals := s.MetricsV2().Totals
	for c := range sum {
		pc := totals[preemptible.Class(c).String()]
		sc := sum[c]
		var rejected [brownout.NumStates]uint64
		rejected[brownout.Normal] = pc.RejectedNormal
		rejected[brownout.Brownout] = pc.RejectedBrownout
		rejected[brownout.Shed] = pc.RejectedShed
		if pc.Requests != sc.Requests {
			t.Errorf("class %d requests: totals %d != Σshards %d", c, pc.Requests, sc.Requests)
		}
		if rejected != sc.Rejected {
			t.Errorf("class %d rejected: totals %v != Σshards %v", c, rejected, sc.Rejected)
		}
		if pc.Timeouts != sc.Timeouts || pc.Evicted != sc.Evicted || pc.Failed != sc.Failed {
			t.Errorf("class %d timeouts/evicted/failed: totals %d/%d/%d != Σshards %d/%d/%d",
				c, pc.Timeouts, pc.Evicted, pc.Failed, sc.Timeouts, sc.Evicted, sc.Failed)
		}
		if pc.Unavailable != sc.Unavailable {
			t.Errorf("class %d unavailable: totals %d != Σshards %d", c, pc.Unavailable, sc.Unavailable)
		}
		if pc.ExpiredQueued != sc.ExpiredQueued || pc.ExpiredExecuting != sc.ExpiredExecuting {
			t.Errorf("class %d expired: totals %d/%d != Σshards %d/%d",
				c, pc.ExpiredQueued, pc.ExpiredExecuting, sc.ExpiredQueued, sc.ExpiredExecuting)
		}
		if pc.Reattempts != sc.Reattempts {
			t.Errorf("class %d reattempts: totals %d != Σshards %d", c, pc.Reattempts, sc.Reattempts)
		}
		if want := sc.CancelledQueued + sc.CancelledExecuting; pc.Cancelled != want {
			t.Errorf("class %d cancelled: totals %d != Σshards %d queued + %d executing",
				c, pc.Cancelled, sc.CancelledQueued, sc.CancelledExecuting)
		}
	}
}

// killToDead drives shard idx through its restart budget by hand until
// it escalates to terminal Dead (requires Supervise.MaxRestarts set and
// the supervisor disabled).
func killToDead(t *testing.T, s *Server, idx, budget int) {
	t.Helper()
	g := s.Group()
	for round := 0; round < budget; round++ {
		gen := g.Shard(idx).Generation()
		g.RestartShard(idx)
		waitFor(t, 3*time.Second, func() bool {
			return g.Shard(idx).Health() == shard.Healthy && g.Shard(idx).Generation() > gen
		}, "budgeted restart to complete")
	}
	g.RestartShard(idx)
	waitFor(t, 3*time.Second, func() bool { return g.Shard(idx).Health() == shard.Dead },
		"budget-exhausted shard to go Dead")
}

func TestMGetFanoutAndOrder(t *testing.T) {
	// MGET spans every shard its keys route to and returns one token per
	// key in request order: escaped values for hits, NOT_FOUND for
	// misses — regardless of how the keys interleave across shards.
	s, addr := startServer(t, Config{Shards: 4})
	c := dial(t, addr)
	if got := c.roundTrip(t, "SET alpha one"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.roundTrip(t, "SET beta two words"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.roundTrip(t, "SET gamma three"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	got := c.roundTrip(t, "MGET alpha nope beta gamma missing")
	want := "MVALUES =one NOT_FOUND =two+words =three NOT_FOUND"
	if got != want {
		t.Fatalf("MGET → %q, want %q", got, want)
	}
	// Each shard leg counts as one LC request; totals stay conserved.
	legs := map[int]bool{}
	for _, k := range []string{"alpha", "nope", "beta", "gamma", "missing"} {
		legs[s.Group().Route([]byte(k))] = true
	}
	if got, want := s.MetricsV2().Totals["lc"].Requests, uint64(3+len(legs)); got != want {
		t.Fatalf("LC requests = %d, want %d (3 SETs + %d MGET legs)", got, want, len(legs))
	}
	checkConservation(t, s)
}

func TestMGetPartialFailure(t *testing.T) {
	// The bulkhead contract on the wire: with one shard Dead, an MGET
	// spanning all shards answers UNAVAILABLE for exactly the dead
	// shard's keys and real values for every other key — partial
	// failure, not all-or-nothing.
	s, addr := startServer(t, Config{
		Shards: 3,
		Supervise: shard.SuperviseConfig{
			MaxRestarts:   1,
			RestartWindow: time.Minute,
			RestartDrain:  100 * time.Millisecond,
		},
	})
	g := s.Group()
	c := dial(t, addr)
	keys := make([]string, g.N())
	for i := range keys {
		keys[i] = keysOn(t, g, i, 1)[0]
		if got := c.roundTrip(t, fmt.Sprintf("SET %s v%d", keys[i], i)); got != "OK" {
			t.Fatalf("SET %s → %q", keys[i], got)
		}
	}
	const victim = 1
	killToDead(t, s, victim, 1)

	got := c.roundTrip(t, "MGET "+strings.Join(keys, " "))
	toks := strings.Fields(got)
	if len(toks) != g.N()+1 || toks[0] != "MVALUES" {
		t.Fatalf("MGET → %q", got)
	}
	for i := range keys {
		want := fmt.Sprintf("=v%d", i)
		if i == victim {
			want = "UNAVAILABLE"
		}
		if toks[i+1] != want {
			t.Errorf("key %s (shard %d): token %q, want %q", keys[i], i, toks[i+1], want)
		}
	}
	// Single-key requests agree: the dead shard's keys answer
	// "ERR unavailable", sibling keys still serve (their values survived
	// the sibling's death — bulkheads share no store).
	if got := c.roundTrip(t, "GET "+keys[victim]); got != "ERR unavailable" {
		t.Fatalf("GET on dead shard → %q", got)
	}
	if got := c.roundTrip(t, "GET "+keys[0]); got != "VALUE v0" {
		t.Fatalf("GET on live shard → %q", got)
	}
	// STATS renders the outage as exactly one degraded shard block.
	stats := c.roundTrip(t, "STATS")
	if !strings.Contains(stats, fmt.Sprintf("s%d.health=dead", victim)) {
		t.Errorf("STATS missing dead shard field: %q", stats)
	}
	if !strings.Contains(stats, "s0.health=healthy") || !strings.Contains(stats, "s2.health=healthy") {
		t.Errorf("STATS lost sibling health: %q", stats)
	}
	checkConservation(t, s)
}

func TestShardRestartConservesCounters(t *testing.T) {
	// Counter conservation across a restart: group STATS totals equal
	// the sum over per-shard counters before a shard restart, after it,
	// and with traffic on both sides of it. The restarted shard's
	// pre-restart requests are not forgotten.
	s, addr := startServer(t, Config{
		Shards: 3,
		Supervise: shard.SuperviseConfig{
			MaxRestarts:   100,
			RestartWindow: time.Minute,
			RestartDrain:  100 * time.Millisecond,
		},
	})
	g := s.Group()
	c := dial(t, addr)
	traffic := func() {
		for i := 0; i < g.N(); i++ {
			k := keysOn(t, g, i, 1)[0]
			c.roundTrip(t, fmt.Sprintf("SET %s v", k))
			c.roundTrip(t, "GET "+k)
		}
		c.roundTrip(t, "PING")
		c.roundTrip(t, "COMPRESS 1")
		c.roundTrip(t, "MGET "+strings.Join(keysOn(t, g, 0, 2), " ")+" "+keysOn(t, g, 2, 1)[0])
		c.roundTrip(t, "GET re-check A1") // a reattempt, for the Reattempts column
	}
	traffic()
	checkConservation(t, s)
	pre := g.Shard(1).Counters()[preemptible.ClassLC].Requests
	if pre == 0 {
		t.Fatal("no pre-restart traffic reached shard 1")
	}

	gen := g.Shard(1).Generation()
	g.RestartShard(1)
	waitFor(t, 3*time.Second, func() bool {
		return g.Shard(1).Health() == shard.Healthy && g.Shard(1).Generation() > gen
	}, "manual shard restart")
	traffic()

	post := g.Shard(1).Counters()[preemptible.ClassLC].Requests
	if post <= pre {
		t.Fatalf("shard 1 LC requests %d → %d: restart dropped counters", pre, post)
	}
	if got := g.Restarts(1); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	checkConservation(t, s)
}

// TestShardKillStormContainment is the fault-containment regression
// matrix: a seeded Gilbert–Elliott kill process repeatedly wedges one
// target shard while the supervisor detects, drains, and rebuilds it —
// and continuous LC traffic pinned to the sibling shards' keys never
// sees a single error. Sibling health, sibling restart counts, and the
// group counter-conservation invariant all survive the storm.
func TestShardKillStormContainment(t *testing.T) {
	const shards, victim = 3, 1
	sk := chaos.NewShardKill(chaos.ShardKillConfig{
		Seed:     20260808,
		Shards:   shards,
		MeanUp:   20, // ~200ms healthy between bursts at a 10ms tick
		MeanDown: 2,
		Targets:  []int{victim},
	})
	s, addr := startServer(t, Config{
		Shards:           shards,
		SuperviseEnabled: true,
		Supervise: shard.SuperviseConfig{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  10 * time.Millisecond,
			MissThreshold:     2,
			RestartDrain:      100 * time.Millisecond,
			KillInject:        sk.Step,
		},
	})
	g := s.Group()

	// Continuous keyed LC traffic on the siblings, raw (no testClient:
	// t.Fatal must not fire off the test goroutine).
	stop := make(chan struct{})
	var mu sync.Mutex
	var sibErrs []string
	var sibOps int
	var wg sync.WaitGroup
	for _, sib := range []int{0, 2} {
		key := keysOn(t, g, sib, 1)[0]
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				mu.Lock()
				sibErrs = append(sibErrs, err.Error())
				mu.Unlock()
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := conn.Write([]byte("GET " + key + "\n")); err != nil {
					return
				}
				if !sc.Scan() {
					return
				}
				mu.Lock()
				sibOps++
				if resp := sc.Text(); resp != "NOT_FOUND" {
					sibErrs = append(sibErrs, resp)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(key)
	}

	// Ride out at least two full kill→detect→rebuild cycles.
	waitFor(t, 15*time.Second, func() bool { return g.Restarts(victim) >= 2 },
		"storm to force two victim restarts")
	waitFor(t, 5*time.Second, func() bool {
		return g.Shard(victim).Health() == shard.Healthy
	}, "victim to recover after the storm")
	close(stop)
	wg.Wait()

	mu.Lock()
	errs, ops := sibErrs, sibOps
	mu.Unlock()
	if len(errs) > 0 {
		t.Fatalf("sibling traffic saw %d errors during the storm (first: %q)", len(errs), errs[0])
	}
	if ops == 0 {
		t.Fatal("sibling traffic never ran")
	}
	for _, sib := range []int{0, 2} {
		if h := g.Shard(sib).Health(); h != shard.Healthy {
			t.Errorf("sibling %d health %v after storm", sib, h)
		}
		if n := g.Restarts(sib); n != 0 {
			t.Errorf("sibling %d restarted %d times — kill mask leaked", sib, n)
		}
	}
	if sk.Kills(victim) == 0 {
		t.Error("injector reports no kills delivered")
	}
	checkConservation(t, s)
	t.Logf("storm: %d sibling ops error-free across %d victim restarts (%d kill verdicts)",
		ops, g.Restarts(victim), sk.Kills(victim))
}

func TestStatsShardFields(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	c := dial(t, addr)
	c.roundTrip(t, "SET k v")
	stats := c.roundTrip(t, "STATS")
	for _, want := range []string{" shards=2", "s0.health=healthy", "s1.health=healthy",
		"s0.restarts=0", "s1.state=normal"} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS missing %q: %q", want, stats)
		}
	}
	checkConservation(t, s)
}
