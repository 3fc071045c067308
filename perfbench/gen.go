package main

import (
	"time"

	"repro/internal/shard"
	"repro/internal/sim"
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
)

// req is one generated LC request. Its line is phase.buf[lo:hi].
type req struct {
	due  int64 // ns after the phase start
	rank int32
	ver  int32 // SET: version written; GET: version the model expects
	kind opKind
	conn uint8
	lo   int32
	hi   int32
}

// phase is one stretch of seeded open-loop traffic plus what the driver
// observed for it.
type phase struct {
	name   string
	rate   float64
	dur    time.Duration
	reqs   []req
	buf    []byte
	byConn [][]int32 // request indexes per connection, in send order

	sent []int64 // ns after the phase start the request was written
	done []int64 // ns after the phase start its response was read; -1 = failed
}

// gen makes the workload's request stream from the seed, and keeps the
// model: the latest version written of every key. Keys are partitioned
// over connections and a connection is served in order, so the model is
// exact at generation time.
type gen struct {
	w       *workload
	seed    uint64
	root    *sim.RNG
	zipf    *sim.Zipf
	ver     []int32
	shardOf []int32
	// setBytes counts MICA log bytes appended per shard by every SET the
	// driver sent, the preload included.
	setBytes []int64
	// userBytes counts key and value bytes of every SET sent.
	userBytes int64
}

// itemBytes is one MICA log record: 4-byte header, 16-byte key, value.
func (g *gen) itemBytes() int64 { return int64(4 + keyLen + g.w.ValueBytes) }

const keyLen = 16

func newGen(w *workload, seed uint64) *gen {
	g := &gen{
		w:        w,
		seed:     seed,
		root:     sim.NewRNG(seed),
		zipf:     sim.NewZipf(w.Keys, w.ZipfS),
		ver:      make([]int32, w.Keys),
		shardOf:  make([]int32, w.Keys),
		setBytes: make([]int64, w.Shards),
	}
	router := shard.NewRouter(w.Shards)
	var key [keyLen]byte
	for r := range g.shardOf {
		g.shardOf[r] = int32(router.Route(appendKey(key[:0], r)))
	}
	return g
}

// connOf partitions keys over the LC connections.
func (g *gen) connOf(rank int) uint8 { return uint8(rank % g.w.LCConns) }

// appendKey appends the canonical 16-byte key of rank ("key-" and twelve
// digits, as mica.KeyForRank spells it).
func appendKey(dst []byte, rank int) []byte {
	dst = append(dst, "key-"...)
	var d [12]byte
	for i := 11; i >= 0; i-- {
		d[i] = byte('0' + rank%10)
		rank /= 10
	}
	return append(dst, d[:]...)
}

// appendValue appends the value of version ver of key rank: ValueBytes
// lowercase hex-like letters after a 'v', a pure function of the seed.
func (g *gen) appendValue(dst []byte, rank int, ver int32) []byte {
	x := g.seed ^ uint64(rank)<<20 ^ uint64(ver)<<44
	dst = append(dst, 'v')
	for i := 1; i < g.w.ValueBytes; i++ {
		if i%16 == 1 {
			x = splitmix(x)
		}
		dst = append(dst, "abcdefghijklmnop"[x&15])
		x >>= 4
	}
	return dst
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newPhase allocates a phase for n requests.
func newPhase(name string, rate float64, dur time.Duration, conns, n int) *phase {
	p := &phase{name: name, rate: rate, dur: dur, byConn: make([][]int32, conns)}
	p.reqs = make([]req, 0, n)
	return p
}

func (p *phase) add(g *gen, due int64, kind opKind, rank int) {
	r := req{due: due, rank: int32(rank), kind: kind, conn: g.connOf(rank), lo: int32(len(p.buf))}
	var key [keyLen]byte
	if kind == opSet {
		g.ver[rank]++
		r.ver = g.ver[rank]
		p.buf = append(p.buf, "SET "...)
		p.buf = append(p.buf, appendKey(key[:0], rank)...)
		p.buf = append(p.buf, ' ')
		p.buf = g.appendValue(p.buf, rank, r.ver)
		g.setBytes[g.shardOf[rank]] += g.itemBytes()
		g.userBytes += int64(keyLen + g.w.ValueBytes)
	} else {
		r.ver = g.ver[rank]
		p.buf = append(p.buf, "GET "...)
		p.buf = append(p.buf, appendKey(key[:0], rank)...)
	}
	p.buf = append(p.buf, '\n')
	r.hi = int32(len(p.buf))
	p.byConn[r.conn] = append(p.byConn[r.conn], int32(len(p.reqs)))
	p.reqs = append(p.reqs, r)
}

func (p *phase) finish() {
	p.sent = make([]int64, len(p.reqs))
	p.done = make([]int64, len(p.reqs))
}

// traffic makes a Poisson stream at rate for dur: Zipf keys, SETs at the
// workload's share. stream picks an independent RNG stream, so a phase's
// keys, kinds and due times depend only on the seed and the stream id.
func (g *gen) traffic(name string, stream uint64, rate float64, dur time.Duration) *phase {
	rng := g.root.Stream(stream)
	n := int(rate*dur.Seconds()*1.05) + 16
	p := newPhase(name, rate, dur, g.w.LCConns, n)
	p.buf = make([]byte, 0, n*(32+int(g.w.SetShare*float64(g.w.ValueBytes+1))))
	meanGap := 1e9 / rate
	var t float64
	for {
		t += rng.Exp(meanGap)
		if t >= float64(dur) {
			break
		}
		kind := opGet
		if rng.Float64() < g.w.SetShare {
			kind = opSet
		}
		p.add(g, int64(t), kind, g.zipf.Sample(rng))
	}
	p.finish()
	return p
}

// preload SETs every key, all due at once.
func (g *gen) preload() *phase {
	p := newPhase("preload", 0, 0, g.w.LCConns, g.w.Keys)
	p.buf = make([]byte, 0, g.w.Keys*(6+keyLen+g.w.ValueBytes))
	for r := 0; r < g.w.Keys; r++ {
		p.add(g, 0, opSet, r)
	}
	p.finish()
	return p
}

// readback GETs every key, all due at once.
func (g *gen) readback() *phase {
	p := newPhase("readback", 0, 0, g.w.LCConns, g.w.Keys)
	p.buf = make([]byte, 0, g.w.Keys*(6+keyLen))
	for r := 0; r < g.w.Keys; r++ {
		p.add(g, 0, opGet, r)
	}
	p.finish()
	return p
}
