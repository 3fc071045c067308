package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bejob"
	"repro/internal/mica"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts are the command-line settings of one run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	plant   time.Duration // busy wait added to every measured response (regression self-check)
}

// outcome is everything one run measured.
type outcome struct {
	t       *tally
	e2e     map[string]metric
	layer   map[string]metric
	phaseS  map[string]float64 // phase lengths, for the header
	ladder  []string           // probes run, "rate:pass|fail"
	lateP99 float64
}

func (o *outcome) set(name string, v float64, unit string)  { o.e2e[name] = metric{v, unit} }
func (o *outcome) lset(name string, v float64, unit string) { o.layer[name] = metric{v, unit} }

// late records an open-loop wall-clock figure. On a shared host these
// move with the hypervisor's steal time far more than any bound allows,
// so they are per-layer metrics ("wall.*") and printed on every run, not
// bounded end-to-end ones.
func (o *outcome) late(name string, v float64, unit string) { o.lset("wall."+name, v, unit) }

func secs(share, total float64) time.Duration {
	return time.Duration(share * total * float64(time.Second))
}

// compressedSize is what COMPRESS kb must report as its output bytes: the
// server compresses the same 1 KiB block kb times.
func compressedSize(kb int) (int, error) {
	n, err := bejob.NewEngine(0).CompressBlock(bejob.MakeBlock(1024, uint64(kb)))
	return n * kb, err
}

// run executes one workload end to end.
func run(cfg *benchConfig, w *workload, o runOpts) (*outcome, error) {
	out := &outcome{t: &tally{}, e2e: map[string]metric{}, layer: map[string]metric{}, phaseS: map[string]float64{}}
	t := out.t
	walDir := walDirFor(o.workdir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(walDir)

	var tr *tracer
	sopts := serverOpts{}
	t.plant = o.plant
	if o.trace {
		tr = newTracer()
		sopts.wrap = tr.wrap
		sopts.walFS = tr.walFS
	}

	// Set-up, repeated; the last one is kept.
	var s *session
	var g *gen
	var setups []float64
	for i := 0; i < cfg.SetupRepeats; i++ {
		if s != nil {
			if err := s.shutdown(); err != nil {
				return nil, err
			}
			s = nil
			release()
		}
		if tr != nil {
			tr.reset()
		}
		g = newGen(w, o.seed)
		var sec float64
		var err error
		if s, sec, err = setup(w, g, walDir, sopts, t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, sec)
	}
	defer func() {
		if s != nil {
			s.shutdown() //nolint:errcheck // the run already failed
		}
	}()
	out.set("setup_s", median(setups), "s")
	out.phaseS["setup_repeats"] = float64(len(setups))

	S := o.seconds
	ph := cfg.Phases
	beKBs := w.BEKB
	if beKBs == 0 {
		beKBs = w.BEAloneKB
	}
	wantOut, err := compressedSize(beKBs)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	release()

	// LC only: warm up, then measure the CPU cost of an LC op.
	warm := g.traffic("warmup", 1, w.NominalRate, secs(ph.Warmup, S))
	runPhase(warm, s.lc, g, t)
	before := scrape(s.rig, g, tr)
	rss := watchRSS()
	solo := runSlices(g, "lc-only", 4, w.LCOnlyRate, secs(ph.LCOnly, S), s.lc, t)
	perOp := make([]float64, len(solo))
	for i, sl := range solo {
		perOp[i] = float64(sl.cpu) / 1e3 / float64(len(sl.p.reqs))
	}
	out.set("lc_cpu_us_per_op", median(perOp), "us")

	// Open-loop latency at the nominal and peak rates, BE colocated when
	// the workload says so.
	var be *beStream
	if w.BEKB > 0 {
		be = startBE(s.be, w.BEKB, wantOut, t)
	}
	nom := runSlices(g, "nominal", 2, w.NominalRate, secs(ph.Nominal, S), s.lc, t)
	peak := g.traffic("peak", 3, w.PeakRate, secs(ph.Peak, S))
	var peakA, peakB stampMark
	if tr != nil {
		peakA = tr.mark(s.lc)
	}
	runPhase(peak, s.lc, g, t)
	if tr != nil {
		peakB = tr.mark(s.lc)
	}
	maxRate := ladder(w, g, s, secs(ph.Probe, S), t, out)
	lcEnd := scrape(s.rig, g, tr)
	out.set("rss_peak_mb", rss.halt(), "MB")

	// BE work per CPU-second: beside the nominal LC stream when
	// colocated, else a closing BE-only phase.
	var beRate []float64 // KB per CPU-second of each slice
	var beKBAll float64
	if be != nil {
		for _, sl := range nom {
			beRate = append(beRate, be.kbBetween(sl.t0, sl.t1)/(float64(sl.cpu)/1e9))
		}
		n0, n1 := nom[0].t0, nom[len(nom)-1].t1
		out.late("be_kb_per_s", be.kbBetween(n0, n1)/n1.Sub(n0).Seconds(), "KB/s")
		beKBAll = be.kbBetween(be.clk.base, time.Now())
		be.halt()
	} else {
		be = startBE(s.be, w.BEAloneKB, wantOut, t)
		b0 := time.Now()
		for i := 0; i < slices; i++ {
			t0, c0 := time.Now(), cpuTime()
			time.Sleep(secs(ph.BE, S) / slices)
			t1, c1 := time.Now(), cpuTime()
			beRate = append(beRate, be.kbBetween(t0, t1)/(float64(c1-c0)/1e9))
		}
		b1 := time.Now()
		beKBAll = be.kbBetween(b0, b1)
		out.late("be_kb_per_s", beKBAll/b1.Sub(b0).Seconds(), "KB/s")
		be.halt()
	}
	out.set("be_kb_per_cpu_s", median(beRate), "KB/cpu-s")
	after := scrape(s.rig, g, tr)

	get := sliceLatencies(nom, isGet)
	set := sliceLatencies(nom, isSet)
	all := latencies(peak, nil)
	out.late("get_p50_us", us(quantile(get, 0.5)), "us")
	out.late("get_p99_us", us(quantile(get, 0.99)), "us")
	out.late("set_p50_us", us(quantile(set, 0.5)), "us")
	out.late("set_p99_us", us(quantile(set, 0.99)), "us")
	out.late("lc_p50_us.peak", us(quantile(all, 0.5)), "us")
	out.late("lc_p99_us.peak", us(quantile(all, 0.99)), "us")
	out.late("lc_max_rate_ops", maxRate, "1/s")
	out.phaseS["samples_nominal_get"] = float64(len(get))
	out.phaseS["samples_nominal_set"] = float64(len(set))
	out.phaseS["samples_peak"] = float64(len(all))
	late := lateness(peak)
	for _, sl := range nom {
		late = append(late, lateness(sl.p)...)
	}
	out.lateP99 = us(quantile(late, 0.99))

	if err := checkStore(w, g, s); err != nil {
		t.mismatch("%v", err)
	}
	if w.WAL != "off" {
		// Every acknowledged SET must survive a close and reopen.
		ns, err := reopen(s, w, walDir, sopts)
		s = nil
		if err != nil {
			return nil, fmt.Errorf("reopen for readback: %w", err)
		}
		s = ns
		runPhase(g.readback(), s.lc, g, t)
	}
	if tr != nil {
		in := traceInput{
			before: before, lcEnd: lcEnd, after: after, peakA: peakA, peakB: peakB,
			ops: len(get) + len(set) + len(all), beKB: beKBAll, replayDur: secs(ph.Replay, S),
			workdir: o.workdir, seed: o.seed,
		}
		if err := tr.report(w, g, s, out, in, t); err != nil {
			return nil, err
		}
	}
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	s = nil
	if tr != nil {
		// The traced run's own end-to-end figures: their difference from
		// an untraced run's is the tracing overhead.
		for k, m := range out.e2e {
			out.lset("traced."+k, m.Value, m.Unit)
		}
	}
	out.phaseS["warmup"] = warm.dur.Seconds()
	out.phaseS["lc_only"] = secs(ph.LCOnly, S).Seconds()
	out.phaseS["nominal"] = secs(ph.Nominal, S).Seconds()
	out.phaseS["peak"] = peak.dur.Seconds()
	out.phaseS["ladder_probe"] = secs(ph.Probe, S).Seconds()
	out.phaseS["be_alone"] = secs(ph.BE, S).Seconds()
	return out, nil
}

// slices is how many back-to-back parts a measured phase is cut into;
// per-part ratios are reported as their median.
const slices = 9

// slice is one part of a phase with the wall and process CPU time it took.
type slice struct {
	p      *phase
	t0, t1 time.Time
	cpu    int64 // ns
}

// runSlices runs a phase of rate for dur as back-to-back slices, each
// its own seeded stream.
func runSlices(g *gen, name string, stream uint64, rate float64, dur time.Duration, clients []*client, t *tally) []slice {
	out := make([]slice, slices)
	for i := range out {
		p := g.traffic(fmt.Sprintf("%s-%d", name, i), stream<<8|uint64(i), rate, dur/slices)
		t0, c0 := time.Now(), cpuTime()
		runPhase(p, clients, g, t)
		out[i] = slice{p: p, t0: t0, t1: time.Now(), cpu: cpuTime() - c0}
	}
	return out
}

func sliceLatencies(ss []slice, keep func(*req) bool) []int64 {
	var out []int64
	for _, sl := range ss {
		out = append(out, latencies(sl.p, keep)...)
	}
	return out
}

// ladder finds the highest rung of the workload's fixed ladder at which
// LC p99 meets the latency limit with no growing backlog, by bisection
// (it assumes a rung passes whenever a higher one does).
func ladder(w *workload, g *gen, s *session, probe time.Duration, t *tally, out *outcome) float64 {
	lo, hi := -1, len(w.Ladder)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		rate := w.Ladder[mid]
		p := g.traffic(fmt.Sprintf("ladder-%d", mid), uint64(100+mid), rate, probe)
		runPhase(p, s.lc, g, t)
		ok := meetsLimit(p, w.limit())
		out.ladder = append(out.ladder, fmt.Sprintf("%.0f:%v", rate, ok))
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
		release()
	}
	if lo < 0 {
		return 0
	}
	return w.Ladder[lo]
}

// meetsLimit: p99 within the limit over the whole probe and over its last
// quarter, so a backlog that grows through the probe fails it.
func meetsLimit(p *phase, limit int64) bool {
	all := latencies(p, nil)
	if quantile(all, 0.99) > limit {
		return false
	}
	var tail []int64
	for i := range p.reqs {
		if p.reqs[i].due >= int64(p.dur)*3/4 {
			if p.done[i] < 0 {
				tail = append(tail, failedLat)
			} else {
				tail = append(tail, p.done[i]-p.reqs[i].due)
			}
		}
	}
	return quantile(tail, 0.99) <= limit
}

func lateness(p *phase) []int64 {
	out := make([]int64, len(p.reqs))
	for i := range p.reqs {
		out[i] = p.sent[i] - p.reqs[i].due
	}
	return out
}

// checkStore verifies the run's sizing assumptions: no shard's circular
// log wrapped and no index entry was evicted, so any GET that missed its
// latest acknowledged value is a server fault, not MICA's lossy design.
func checkStore(w *workload, g *gen, s *session) error {
	grp := s.srv.Group()
	per := int64(w.StoreLogBytes / w.Shards)
	for i := 0; i < grp.N(); i++ {
		if g.setBytes[i] > per {
			return fmt.Errorf("shard %d appended %d log bytes into a %d-byte log: it wrapped", i, g.setBytes[i], per)
		}
		var ev uint64
		grp.Shard(i).StoreView(func(st *mica.Store) { ev = st.IndexEvictions })
		if ev != 0 {
			return fmt.Errorf("shard %d evicted %d index entries", i, ev)
		}
	}
	return nil
}
