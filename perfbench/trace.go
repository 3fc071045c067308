package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bejob"
	"repro/internal/liveserver"
	"repro/internal/mica"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/preemptible"
)

// epoch is the time base of the tracer's stamps and spans.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// tracer is the traced run's instrumentation, all on the benchmark's side
// of the program's public API: a timing listener, a byte-counting WAL
// filesystem, and an in-process replay that times each layer call.
type tracer struct {
	mu       sync.Mutex
	conns    []*stampConn
	walBytes atomic.Int64
	walFS    wal.FS
}

func newTracer() *tracer {
	t := &tracer{}
	t.walFS = countFS{FS: wal.OSFS{}, n: &t.walBytes}
	return t
}

// reset forgets the connections of a discarded set-up.
func (t *tracer) reset() {
	t.mu.Lock()
	t.conns = nil
	t.mu.Unlock()
}

func (t *tracer) wrap(ln net.Listener) net.Listener {
	return stampListener{Listener: ln, t: t}
}

type stampListener struct {
	net.Listener
	t *tracer
}

func (l stampListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stampConn{Conn: c}
	l.t.mu.Lock()
	l.t.conns = append(l.t.conns, sc)
	l.t.mu.Unlock()
	return sc, nil
}

// stampConn stamps when each request line has been read and when each
// response line has been written; per connection both are FIFO.
type stampConn struct {
	net.Conn
	mu            sync.Mutex
	reads, writes []int64
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if k := bytes.Count(p[:n], []byte{'\n'}); k > 0 {
		now := mono()
		c.mu.Lock()
		for ; k > 0; k-- {
			c.reads = append(c.reads, now)
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *stampConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if k := bytes.Count(p[:n], []byte{'\n'}); k > 0 {
		now := mono()
		c.mu.Lock()
		for ; k > 0; k-- {
			c.writes = append(c.writes, now)
		}
		c.mu.Unlock()
	}
	return n, err
}

// stampMark is how many responses each LC connection had written.
type stampMark map[*stampConn]int

// mark records the write counts of the connections serving lc.
func (t *tracer) mark(lc []*client) stampMark {
	local := map[string]bool{}
	for _, c := range lc {
		local[c.c.LocalAddr().String()] = true
	}
	m := stampMark{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sc := range t.conns {
		if local[sc.RemoteAddr().String()] {
			sc.mu.Lock()
			m[sc] = len(sc.writes)
			sc.mu.Unlock()
		}
	}
	return m
}

// residence is write stamp minus read stamp of every request answered
// between marks a and b.
func residence(a, b stampMark) []int64 {
	var out []int64
	for sc, from := range a {
		to := b[sc]
		sc.mu.Lock()
		for i := from; i < to && i < len(sc.reads); i++ {
			out = append(out, sc.writes[i]-sc.reads[i])
		}
		sc.mu.Unlock()
	}
	return out
}

// countFS counts every byte the WAL writes, snapshots included.
type countFS struct {
	wal.FS
	n *atomic.Int64
}

func (f countFS) OpenFile(name string, flag int) (wal.File, error) {
	fl, err := f.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return countFile{File: fl, n: f.n}, nil
}

type countFile struct {
	wal.File
	n *atomic.Int64
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// counters is one scrape of the server's counters and the Go runtime's.
type counters struct {
	m           liveserver.MetricsV2
	hits, gets  uint64
	preemptions uint64
	wal         wal.Stats
	walBytes    int64
	userBytes   int64
	gcCycles    uint64
	gcPauses    *metrics.Float64Histogram
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

func scrape(r *rig, g *gen, tr *tracer) counters {
	c := counters{m: r.srv.MetricsV2(), userBytes: g.userBytes}
	grp := r.srv.Group()
	for i := 0; i < grp.N(); i++ {
		sh := grp.Shard(i)
		sh.StoreView(func(st *mica.Store) { c.hits += st.Hits; c.gets += st.Gets })
		c.preemptions += sh.Stats().Preemptions
		c.wal.Add(sh.WALStats())
	}
	if tr != nil {
		c.walBytes = tr.walBytes.Load()
	}
	s := make([]metrics.Sample, len(gcSamples))
	copy(s, gcSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		c.gcPauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return c
}

// pauseP99 is the p99 GC pause between two scrapes, in µs: the upper
// edge of the histogram bucket holding it.
func pauseP99(a, b counters) float64 {
	if a.gcPauses == nil || b.gcPauses == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.gcPauses.Counts))
	for i := range d {
		d[i] = b.gcPauses.Counts[i] - a.gcPauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, n := range d {
		cum += n
		if float64(cum) >= 0.99*float64(total) {
			edge := b.gcPauses.Buckets[i+1]
			if edge > 1e9 { // +Inf: use the lower edge
				edge = b.gcPauses.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// span is one timed call in the replay.
type span struct {
	name       spanName
	req        int32
	parent     int32 // index in the same request's span list; -1 = root
	start, end int64
}

type spanName uint8

const (
	spRequest spanName = iota
	spParse
	spRoute
	spDo
	spTask
	spStoreGet
	spDurableSet
	spCompress
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "liveserver.ParseLine", "shard.Group.Route", "shard.Group.Do",
	"task", "shard.Shard.StoreGet", "shard.Shard.DurableSet", "bejob.Engine.CompressBlock",
}

// replay runs p's requests in process through the calls handleRequest
// makes, in its order, at the phase's due times: one goroutine per
// connection's share of the keys (as a connection is served in order),
// plus a closed-loop COMPRESS task stream when the workload colocates
// BE. It returns every span recorded, grouped per request.
func replay(w *workload, g *gen, s *session, p *phase, t *tally) [][]span {
	grp := s.srv.Group()
	base := mono()
	var wg sync.WaitGroup
	out := make([][]span, len(p.byConn)+1)
	for ci := range p.byConn {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out[ci] = replayConn(g, grp, p, p.byConn[ci], base, t)
		}(ci)
	}
	if w.BEKB > 0 {
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[len(p.byConn)] = replayBE(grp, w.BEKB, stop)
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(p.dur)
			close(stop)
		}()
	}
	wg.Wait()
	return out
}

func replayConn(g *gen, grp *shard.Group, p *phase, idx []int32, base int64, t *tally) []span {
	spans := make([]span, 0, len(idx)*6)
	want := make([]byte, 0, g.w.ValueBytes)
	for _, i := range idx {
		r := &p.reqs[i]
		for {
			gap := base + r.due - mono()
			if gap <= 0 {
				break
			}
			sleepNs(gap)
		}
		line := string(p.buf[r.lo : r.hi-1])
		root := len(spans)
		spans = append(spans, span{name: spRequest, req: i, parent: -1, start: mono()})
		at := func(name spanName, parent int, f func()) {
			k := len(spans)
			spans = append(spans, span{name: name, req: i, parent: int32(parent), start: mono()})
			f()
			spans[k].end = mono()
		}
		var fields []string
		at(spParse, root, func() { fields, _ = liveserver.ParseLine(line) })
		key := []byte(fields[1])
		var sh int
		at(spRoute, root, func() { sh = grp.Route(key) })
		var value []byte
		if r.kind == opSet {
			value = []byte(fields[2])
		}
		var ok bool
		var taskSpans [2]span
		doIdx := len(spans)
		var res shard.Result
		at(spDo, root, func() {
			res = grp.Do(sh, preemptible.ClassLC, func(ctx *preemptible.Ctx) {
				taskSpans[0] = span{name: spTask, req: i, parent: int32(doIdx), start: mono()}
				st := mono()
				if r.kind == opSet {
					set, err := grp.Shard(sh).DurableSet(key, value)
					ok = set && err == nil
					taskSpans[1] = span{name: spDurableSet, req: i, start: st, end: mono()}
				} else {
					res := grp.Shard(sh).StoreGet(key)
					want = g.appendValue(want[:0], int(r.rank), r.ver)
					ok = res.Hit && bytes.Equal(res.Value, want)
					taskSpans[1] = span{name: spStoreGet, req: i, start: st, end: mono()}
				}
				taskSpans[0].end = mono()
			}, shard.DoOptions{})
		})
		if res.Outcome == shard.OK {
			taskSpans[1].parent = int32(len(spans))
			spans = append(spans, taskSpans[0], taskSpans[1])
		} else {
			t.failed.Add(1)
		}
		if res.Outcome == shard.OK && !ok {
			t.mismatch("replay: %s key %d version %d", line[:3], r.rank, r.ver)
		}
		spans[root].end = mono()
		t.attempted.Add(1)
	}
	return spans
}

// replayBE keeps one COMPRESS-shaped BE task in flight until stop.
func replayBE(grp *shard.Group, kb int, stop <-chan struct{}) []span {
	var spans []span
	block := bejob.MakeBlock(1024, uint64(kb))
	for n := int32(0); ; n++ {
		select {
		case <-stop:
			return spans
		default:
		}
		root := len(spans)
		spans = append(spans, span{name: spDo, req: -1 - n, parent: -1, start: mono()})
		var inner []span
		grp.Do(0, preemptible.ClassBE, func(ctx *preemptible.Ctx) {
			inner = inner[:0]
			for i := 0; i < kb; i++ {
				st := mono()
				grp.Shard(0).Engine().CompressBlock(block) //nolint:errcheck // flate into a bytes.Buffer cannot fail
				inner = append(inner, span{name: spCompress, req: -1 - n, parent: int32(root), start: st, end: mono()})
				ctx.Checkpoint()
			}
		}, shard.DoOptions{})
		spans[root].end = mono()
		spans = append(spans, inner...)
	}
}

// selfTimes is, per span name, each span's duration minus the time its
// children cover, in ns.
func selfTimes(all [][]span) [numSpanNames][]int64 {
	var out [numSpanNames][]int64
	for _, spans := range all {
		covered := make([]int64, len(spans))
		// Children of one parent never overlap: a request's calls are
		// sequential and a task's store call sits inside the task.
		for _, sp := range spans {
			if sp.parent >= 0 {
				covered[sp.parent] += sp.end - sp.start
			}
		}
		for k, sp := range spans {
			out[sp.name] = append(out[sp.name], sp.end-sp.start-covered[k])
		}
	}
	return out
}

// dumpSpans writes every span as CSV: request, name, parent, start, end.
func dumpSpans(path string, all [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,name,parent,start_ns,end_ns")
	for _, spans := range all {
		for _, sp := range spans {
			parent := "-"
			if sp.parent >= 0 {
				parent = spanNames[spans[sp.parent].name]
			}
			fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", sp.req, spanNames[sp.name], parent, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// nsPer times f over n calls (after one warm call) and returns ns per
// call; n grows until the loop runs at least 50 ms.
func nsPer(f func(i int)) float64 {
	f(0)
	for n := 1000; ; n *= 4 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := time.Since(t0); d > 50*time.Millisecond || n > 1<<24 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// traceInput is what the wire phases of a traced run hand the report.
type traceInput struct {
	before, lcEnd, after counters
	peakA, peakB         stampMark
	ops                  int     // LC ops of the nominal and peak phases
	beKB                 float64 // BE kilobytes completed, whole run
	replayDur            time.Duration
	workdir              string
	seed                 uint64
}

// report fills the per-layer metrics. It runs after the wire phases and
// checks, on the run's final server: the replay first, then the
// microbenchmarks, whose SETs leave the store off the model.
func (tr *tracer) report(w *workload, g *gen, s *session, out *outcome, in traceInput, t *tally) error {
	b, l, a := in.before, in.lcEnd, in.after
	ops := float64(in.ops)

	// Counters from the wire phases.
	res := residence(in.peakA, in.peakB)
	out.lset("liveserver.residence_p50_us", us(quantile(res, 0.5)), "us")
	out.lset("liveserver.residence_p99_us", us(quantile(res, 0.99)), "us")
	var req, refused uint64
	for _, c := range []string{"lc", "be"} {
		x, y := b.m.Totals[c], a.m.Totals[c]
		req += y.Requests - x.Requests
		refused += (y.RejectedNormal + y.RejectedBrownout + y.RejectedShed + y.Unavailable) -
			(x.RejectedNormal + x.RejectedBrownout + x.RejectedShed + x.Unavailable)
	}
	out.lset("shard.refused_share", ratio(float64(refused), float64(req)), "ratio")
	out.lset("shard.requests", float64(req), "count")
	out.lset("preemptible.lc_phase_preemptions", float64(l.preemptions-b.preemptions), "count")
	out.lset("preemptible.preemptions_per_be_kb", ratio(float64(a.m.Pool.Preemptions-b.m.Pool.Preemptions), in.beKB), "1/KB")
	out.lset("mica.hit_ratio", ratio(float64(l.hits-b.hits), float64(l.gets-b.gets)), "ratio")
	appends, fsyncs := l.m.WAL.WalAppends-b.m.WAL.WalAppends, l.m.WAL.WalFsyncs-b.m.WAL.WalFsyncs
	out.lset("wal.fsyncs", float64(fsyncs), "count")
	out.lset("wal.appends_per_fsync", ratio(float64(appends), float64(fsyncs)), "ratio")
	out.lset("wal.bytes_per_user_byte", ratio(float64(l.walBytes-b.walBytes), float64(l.userBytes-b.userBytes)), "ratio")
	out.lset("wal.recovery_ms", float64(b.wal.Recovery.Microseconds())/1e3, "ms")
	out.lset("goruntime.gc_cycles_per_kop", ratio(float64(l.gcCycles-b.gcCycles), ops/1e3), "1/kop")
	out.lset("goruntime.gc_pause_p99_us", pauseP99(b, l), "us")
	out.lset("driver.late_p99_us", out.lateP99, "us")
	out.lset("bejob.deferred", float64(t.beDeferred.Load()), "count")

	// In-process replay of the peak schedule with a span per layer call.
	rp := g.traffic("replay", 3, w.PeakRate, in.replayDur)
	spans := replay(w, g, s, rp, t)
	var wait []int64
	for _, sp := range spans {
		for _, x := range sp {
			if x.name == spTask {
				wait = append(wait, x.start-sp[x.parent].start)
			}
		}
	}
	self := selfTimes(spans)
	out.lset("preemptible.queue_wait_p50_us", us(quantile(wait, 0.5)), "us")
	out.lset("preemptible.queue_wait_p99_us", us(quantile(wait, 0.99)), "us")
	out.lset("preemptible.do_self_p50_us", us(quantile(self[spDo], 0.5)), "us")
	out.lset("wal.durable_set_p50_us", us(quantile(self[spDurableSet], 0.5)), "us")
	out.lset("wal.durable_set_p99_us", us(quantile(self[spDurableSet], 0.99)), "us")
	name := fmt.Sprintf("spans-%s-seed%d.csv", w.Name, in.seed)
	if err := dumpSpans(filepath.Join(in.workdir, name), spans); err != nil {
		return err
	}

	// Microbenchmarks of single calls on the workload's own inputs.
	lines := make([]string, len(rp.reqs))
	keys := make([][]byte, len(rp.reqs))
	for i, r := range rp.reqs {
		lines[i] = string(rp.buf[r.lo : r.hi-1])
		keys[i] = rp.buf[r.lo+4 : r.lo+4+keyLen]
	}
	if len(lines) == 0 {
		return fmt.Errorf("trace: empty replay")
	}
	n := len(lines)
	out.lset("liveserver.parse_ns", nsPer(func(i int) { liveserver.ParseLine(lines[i%n]) }), "ns")
	grp := s.srv.Group()
	out.lset("shard.route_ns", nsPer(func(i int) { grp.Route(keys[i%n]) }), "ns")
	pool := grp.Shard(0).Pool()
	out.lset("preemptible.launch_handoff_ns", nsPer(func(int) { pool.SubmitWait(func(*preemptible.Ctx) {}) }), "ns") //nolint:errcheck
	k := 0
	allocRuns := 2000
	if w.WAL != "off" {
		allocRuns = 300 // every SET waits on fsync
	}
	out.lset("liveserver.allocs_per_req", testing.AllocsPerRun(allocRuns, func() { s.srv.HandleLine(lines[k%n]); k++ }), "count")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		s.srv.HandleLine(lines[(k+i)%n])
	}
	runtime.ReadMemStats(&m1)
	out.lset("liveserver.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(allocRuns), "B")

	st := mica.NewStore(w.StoreLogBytes/w.Shards, w.StoreLogBytes/w.Shards/256)
	val := g.appendValue(nil, 0, 0)
	var key [keyLen]byte
	for r := 0; r < w.Keys; r++ {
		st.Set(appendKey(key[:0], r), val)
	}
	out.lset("mica.get_ns", nsPer(func(i int) { st.Get(keys[i%n]) }), "ns")
	out.lset("mica.set_ns", nsPer(func(i int) { st.Set(keys[i%n], val) }), "ns")
	eng := bejob.NewEngine(0)
	block := bejob.MakeBlock(1024, 1)
	out.lset("bejob.compress_us_per_kb", nsPer(func(int) { eng.CompressBlock(block) })/1e3, "us") //nolint:errcheck
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
