package liveserver

// Fault-containment regression matrix: a seeded chaos.PanicInjector
// poisons BE request bodies in Gilbert–Elliott bursts while BE clients
// hammer the server and an LC trickle keeps flowing. The matrix asserts
// the whole containment contract at once — no injected panic escapes
// the pool (the process and every worker survive, accounting conserves
// each request), the BE breaker trips to fast-reject the poisoned
// class and recovers through probes with no flapping, and LC traffic
// is never failed or rejected by the breaker.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/preemptible"
)

// TestPanicContainmentSingleRequest: one poisoned BE request answers
// "ERR internal"; the connection, worker, and subsequent requests are
// unharmed.
func TestPanicContainmentSingleRequest(t *testing.T) {
	var arm atomic.Bool
	s, addr := startServer(t, Config{
		Workers:          1,
		BrownoutDisabled: true,
		PanicInject: func(class preemptible.Class) bool {
			return class == preemptible.ClassBE && arm.Swap(false)
		},
	})
	c := dial(t, addr)
	if got := c.roundTrip(t, "COMPRESS 2"); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("healthy COMPRESS → %q", got)
	}
	arm.Store(true)
	if got := c.roundTrip(t, "COMPRESS 2"); got != "ERR internal" {
		t.Fatalf("poisoned COMPRESS → %q, want \"ERR internal\"", got)
	}
	// Same connection, same (sole) worker: both survived.
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after contained panic → %q", got)
	}
	if got := c.roundTrip(t, "COMPRESS 2"); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("COMPRESS after contained panic → %q", got)
	}
	st := s.PoolStats()
	if st.Failed != 1 || st.PerClass[preemptible.ClassBE].Failed != 1 {
		t.Fatalf("pool failure counters: %+v", st)
	}
}

func TestFaultContainmentRegressionMatrix(t *testing.T) {
	// Panic schedule: a seeded injector poisons BE bodies in correlated
	// bursts — well over the 1% floor — while storming is on; the storm
	// then ends and healthy traffic feeds the recovery probes.
	inject := chaos.NewPanicInjector(chaos.PanicConfig{
		Seed: 1234,
		Prob: 0.05,
		Burst: &chaos.GEConfig{
			MeanGood: 30, MeanBad: 20,
		},
	})
	var storming atomic.Bool
	storming.Store(true)
	bcfg := breaker.Config{
		FailureThreshold: 5,
		OpenTimeout:      20 * time.Millisecond,
		HalfOpenProbes:   2,
	}
	s, addr := startServer(t, Config{
		Workers:          2,
		Quantum:          time.Millisecond,
		MaxInflight:      32,
		BrownoutDisabled: true, // isolate the breaker's contract from load control
		Breaker:          bcfg,
		PanicInject: func(class preemptible.Class) bool {
			return class == preemptible.ClassBE && storming.Load() && inject.Should()
		},
	})

	// LC trickle for the whole run: the containment contract says none
	// of these may ever see a breaker reject or an internal error.
	stopLC := make(chan struct{})
	var lcWG sync.WaitGroup
	var lcMu sync.Mutex
	lcResponses := make(map[string]int)
	for i := 0; i < 2; i++ {
		lcWG.Add(1)
		go func() {
			defer lcWG.Done()
			c := dial(t, addr)
			for n := 0; ; n++ {
				select {
				case <-stopLC:
					return
				default:
				}
				req := "SET k v"
				if n%2 == 1 {
					req = "GET k"
				}
				resp := c.roundTrip(t, req)
				if !strings.HasPrefix(resp, "ERR") {
					resp = strings.Fields(resp)[0]
				}
				lcMu.Lock()
				lcResponses[resp]++
				lcMu.Unlock()
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}

	// BE panic storm under burst load: clients hammer COMPRESS through
	// the seeded burst windows; the injector poisons a clustered subset.
	windows := chaos.BurstWindows(99, 20*time.Millisecond, 50*time.Millisecond, 400*time.Millisecond)
	var beMu sync.Mutex
	beResponses := make(map[string]int)
	beClient := func(stop chan struct{}, wg *sync.WaitGroup) {
		defer wg.Done()
		c := dial(t, addr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp := c.roundTrip(t, "COMPRESS 4")
			key := resp
			if f := strings.Fields(resp); len(f) >= 2 && !strings.HasPrefix(resp, "ERR") {
				key = f[0]
			}
			beMu.Lock()
			beResponses[key]++
			beMu.Unlock()
			time.Sleep(500 * time.Microsecond)
		}
	}
	// Replay the schedule until at least 300 BE requests have flowed
	// and the storm has been seen to work: the BE breaker tripped and BE
	// clients got its fast reject. A fixed round or request budget
	// cannot promise that: the poison stream is indexed by BE request,
	// its first long bad sojourn starts near request 300, and in the
	// short runs before it healthy completions interleaved among the
	// poisoned ones can keep any five failures from landing back to
	// back. The wall deadline bounds a build whose breaker never trips,
	// which row 3 reports.
	be := s.Breaker(preemptible.ClassBE)
	stormSeen := func() bool {
		beMu.Lock()
		defer beMu.Unlock()
		return be.Trips() > 0 && beResponses["ERR unavailable"] > 0
	}
	stormEnd := time.Now().Add(20 * time.Second)
	var beWG sync.WaitGroup
	for (inject.Counters().Requests < 300 || !stormSeen()) && time.Now().Before(stormEnd) {
		for _, w := range windows {
			if !w.Bad {
				time.Sleep(w.Duration())
				continue
			}
			stopBE := make(chan struct{})
			for i := 0; i < 6; i++ {
				beWG.Add(1)
				go beClient(stopBE, &beWG)
			}
			time.Sleep(w.Duration())
			close(stopBE)
			beWG.Wait()
		}
	}

	// Storm over: stop poisoning, keep gentle BE traffic flowing so the
	// breaker's half-open probes see healthy completions and reclose it.
	storming.Store(false)
	recover := dial(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for be.State(time.Now()) != breaker.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("BE breaker never reclosed after the storm: state %v, history %+v",
				be.State(time.Now()), be.History())
		}
		recover.roundTrip(t, "COMPRESS 1")
		time.Sleep(time.Millisecond)
	}
	close(stopLC)
	lcWG.Wait()

	// --- Row 1: the storm was real. The injector poisoned well past
	// the 1% floor of BE requests the pool actually ran.
	ctr := inject.Counters()
	if ctr.Total() == 0 {
		t.Fatal("the seeded injector never poisoned a request")
	}
	if ctr.Requests > 0 && float64(ctr.Total()) < 0.01*float64(ctr.Requests) {
		t.Errorf("poisoned %d of %d admitted BE requests, below the 1%% floor", ctr.Total(), ctr.Requests)
	}

	// --- Row 2: no injected panic escaped the pool. The process is
	// alive (we are here), every poisoned task settled as Failed — no
	// more, no less — and per-class accounting conserves every request.
	waitDrained(t, s, 2*time.Second)
	st := s.PoolStats()
	if st.Failed != ctr.Total() {
		t.Errorf("pool Failed = %d, injector poisoned %d", st.Failed, ctr.Total())
	}
	if lcf := st.PerClass[preemptible.ClassLC].Failed; lcf != 0 {
		t.Errorf("%d LC tasks failed; only BE was poisoned", lcf)
	}

	// --- Row 3: the breaker tripped and fast-rejected the poisoned
	// class; clients saw the distinct fault signal, not a load signal.
	if be.Trips() == 0 {
		t.Error("BE breaker never tripped during the panic storm")
	}
	m := s.MetricsV2()
	lcOv, beOv := m.Totals["lc"], m.Totals["be"]
	if beOv.Unavailable == 0 {
		t.Error("no BE request was fast-rejected by the tripped breaker")
	}
	if beOv.Failed == 0 {
		t.Error("no BE request was counted as failed")
	}
	beMu.Lock()
	if beResponses["ERR unavailable"] == 0 {
		t.Errorf("BE clients never saw \"ERR unavailable\": %v", beResponses)
	}
	beMu.Unlock()

	// --- Row 4: zero LC requests failed or breaker-rejected. The LC
	// breaker never tripped; LC clients saw only healthy responses.
	if lc := s.Breaker(preemptible.ClassLC); lc.Trips() != 0 {
		t.Errorf("LC breaker tripped %d times during a BE-only storm", lc.Trips())
	}
	if lcOv.Unavailable != 0 || lcOv.Failed != 0 {
		t.Errorf("LC harmed by the BE storm: unavailable=%d failed=%d", lcOv.Unavailable, lcOv.Failed)
	}
	lcMu.Lock()
	for _, bad := range []string{"ERR unavailable", "ERR internal"} {
		if n := lcResponses[bad]; n != 0 {
			t.Errorf("LC clients saw %q %d times: %v", bad, n, lcResponses)
		}
	}
	lcMu.Unlock()

	// --- Row 5: recovery with no flapping. The breaker's history ends
	// closed, and sustained healthy traffic never re-trips it.
	hist := be.History()
	if len(hist) == 0 || hist[len(hist)-1].To != breaker.Closed {
		t.Fatalf("breaker history does not end closed: %+v", hist)
	}
	trips := be.Trips()
	for i := 0; i < 100; i++ {
		if got := recover.roundTrip(t, "COMPRESS 1"); !strings.HasPrefix(got, "COMPRESSED") {
			t.Fatalf("healthy post-storm COMPRESS → %q", got)
		}
	}
	if got := be.Trips(); got != trips {
		t.Errorf("breaker re-tripped on healthy traffic: %d → %d (flapping)", trips, got)
	}
	if got := be.State(time.Now()); got != breaker.Closed {
		t.Errorf("breaker state %v after healthy traffic, want closed", got)
	}

	// --- Row 6: the breaker is observable. STATS reports the per-class
	// state and trip counts.
	stats := dial(t, addr).roundTrip(t, "STATS")
	for _, want := range []string{"breaker.lc=closed", "breaker.lc.trips=0", "breaker.be=closed"} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS %q missing %q", stats, want)
		}
	}
	if !strings.Contains(stats, "breaker.be.trips=") || strings.Contains(stats, "breaker.be.trips=0") {
		t.Errorf("STATS does not report the BE trips: %q", stats)
	}
	t.Logf("matrix: poisoned %d/%d BE requests, %d trips, LC %v, BE %v",
		ctr.Total(), ctr.Requests, be.Trips(), lcResponses, beResponses)
}

// TestShutdownGraceful: Shutdown with headroom finishes the in-flight
// request, answers it, and returns nil; nothing is cancelled.
func TestShutdownGraceful(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, BrownoutDisabled: true})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	// Launch a BE request and shut down once it is in flight: the
	// request must complete and be answered before its connection is
	// torn down. (A line still sitting in the read buffer at shutdown
	// is legitimately dropped — graceful drain covers work in progress,
	// not work not yet begun.)
	if _, err := c.conn.Write([]byte("COMPRESS 64\n")); err != nil {
		t.Fatal(err)
	}
	waitStart := time.Now().Add(2 * time.Second)
	for s.inflightTotal() == 0 && time.Now().Before(waitStart) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !c.r.Scan() {
		t.Fatalf("no response to the in-flight request: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("in-flight request during graceful shutdown → %q", got)
	}
	st := s.PoolStats()
	if st.Cancelled() != 0 {
		t.Fatalf("graceful shutdown cancelled %d tasks", st.Cancelled())
	}
	if st.PerClass[preemptible.ClassBE].Completed == 0 {
		t.Fatalf("in-flight BE work not completed: %+v", st)
	}
}

// TestShutdownDeadlineCancelsStragglers: a deadline that cannot cover
// the in-flight work forces cancellation through the cancel-unwind
// path; Shutdown reports the deadline and accounting still balances.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, BrownoutDisabled: true})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	// A single worker and a long COMPRESS: the 5ms budget cannot cover
	// it, so the drain deadline must cancel it at a safepoint.
	if _, err := c.conn.Write([]byte("COMPRESS 1024\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.inflightTotal() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	st := s.PoolStats()
	if st.Cancelled()+st.Completed == 0 {
		t.Fatalf("in-flight work neither cancelled nor completed: %+v", st)
	}
	for c := 0; c < preemptible.NumClasses; c++ {
		if cs := st.PerClass[c]; cs.Settled() != cs.Submitted {
			t.Fatalf("class %v accounting broken after forced shutdown: %+v", preemptible.Class(c), cs)
		}
	}
	// Post-shutdown submissions are refused, not crashed.
	if _, err := s.group.Shard(0).Pool().SubmitClass(preemptible.ClassLC, func(*preemptible.Ctx) {}, nil); !errors.Is(err, preemptible.ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}
