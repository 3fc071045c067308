// Package liveserver is a working TCP key-value + compression server
// built on the public preemptible runtime — the live analog of the
// paper's "deploy LibPreemptible under an RPC server" study (§V-B) and
// colocation scenario (§V-C). Short KV operations and long compression
// requests share preemptible worker pools; the pool quantum controls
// how aggressively the long requests are preempted.
//
// The server is partitioned into N bulkhead shards (internal/shard):
// each shard owns its own pool, store partition, brownout controller,
// and circuit breakers, behind a rendezvous-hash router resolved at
// parse time. Keys route statically — a key's shard never changes with
// shard health — so a wedged or dead shard is a visible partial
// failure: exactly its keys answer "ERR unavailable" while sibling
// shards keep serving theirs. Keyless work (PING, COMPRESS) routes
// round-robin over healthy shards. An optional supervisor heartbeats
// every shard, drains and rebuilds wedged ones, and retires flapping
// ones permanently (see Config.SuperviseEnabled).
//
// Protocol (one request per line, responses newline-terminated):
//
//	SET <key> <value>        → OK
//	GET <key>                → VALUE <value> | NOT_FOUND
//	MGET <key> [<key> ...]   → MVALUES <tok> [<tok> ...]
//	COMPRESS <n>             → COMPRESSED <in> <out>   (n kilobytes of work)
//	PING                     → PONG
//	STATS                    → STATS state=<..> load=<..> <counters> <per-shard fields>
//	STATS2                   → STATS2 <one-line JSON document> (see metrics.go)
//
// MGET fans out to every shard its keys route to, each leg under the
// request's wire deadline, and reports per-key partial results: one
// token per key, in request order. A hit is "=" + the value,
// percent-escaped (url.QueryEscape) so values survive tokenization; a
// miss is NOT_FOUND; a key whose shard leg failed carries the failure
// instead — UNAVAILABLE (shard down or breaker open), DEADLINE (the
// leg expired server-side), OVERLOADED, BROWNOUT, CANCELLED, or ERROR.
// One dead shard degrades exactly its keys; the rest of the response
// is served normally.
//
// Every command may carry trailing metadata tokens, at most one of
// each, in either order:
//
//	D<micros>  absolute hard deadline, microseconds since the Unix epoch
//	A<n>       attempt number (0/absent = primary, ≥1 = retry or hedge)
//
// A request whose deadline passes while it waits in a pool queue is
// dropped at dequeue — no worker time is spent on work whose caller has
// given up — and one already executing unwinds at its next safepoint;
// either way the client gets "ERR deadline". Malformed tokens answer
// "ERR bad token <tok>", duplicates "ERR duplicate token <tok>". Note
// that a SET value's final word is consumed as metadata when it has
// token shape (D or A followed by digits); clients needing such values
// verbatim must append an explicit A0.
//
// Unknown or malformed requests get "ERR <reason>". Under overload the
// server sheds rather than queues: connections beyond MaxConns and
// requests beyond a shard's inflight share (or older than
// RequestTimeout) answer "ERR overloaded", and lines longer than
// MaxLineBytes answer "ERR line too long" before the connection closes.
//
// Requests carry a service class mirroring the paper's colocation
// contract: KV operations (GET/SET/MGET/PING) are latency-critical
// (LC), COMPRESS is best-effort (BE). Each shard runs its own brownout
// controller (internal/brownout) watching that shard's smoothed load —
// inflight occupancy plus recent fast-rejects against the shard's
// inflight share, queue delay, and the runtime watchdog — and degrades
// class-aware:
//
//   - NORMAL: everyone is admitted up to the inflight share.
//   - BROWNOUT: BE answers "ERR brownout" at the door (retry later,
//     or as LC) and queued BE is evicted from the pool; LC keeps
//     flowing, bypassing the inflight cap — LC floods escalate the
//     controller instead of turning LC away.
//   - SHED: sustained overload BE rejection cannot absorb — every
//     request answers "ERR overloaded" until pressure drains.
//
// "ERR brownout" versus "ERR overloaded" is the client's signal to
// retry soon versus back off hard. Degradation is per shard: a
// COMPRESS flood on one shard browns out that shard alone.
//
// Fault containment rides alongside load protection: a request whose
// task panics is contained by the pool (the worker survives) and
// answers "ERR internal"; a class whose tasks keep panicking trips its
// shard's per-class circuit breaker (internal/breaker) and fast-rejects
// with "ERR unavailable" until recovery probes succeed. Shutdown drains
// gracefully on SIGTERM: in-flight requests finish under a deadline,
// stragglers are cancelled through the pool's cancel-unwind path.
package liveserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bejob"
	"repro/internal/breaker"
	"repro/internal/brownout"
	"repro/internal/mica"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/preemptible"
)

// Config parameterizes a Server.
type Config struct {
	// Shards partitions the server into this many bulkhead shards
	// (default 1), each with its own pool, store partition, brownout
	// controller, and breakers. Keys route by rendezvous hash; one
	// shard's failure leaves the others' keys fully served.
	Shards int
	// Workers is each shard's preemptible pool size (default 2).
	Workers int
	// Quantum is the pool time slice (default 1ms).
	Quantum time.Duration
	// StoreLogBytes sizes the KV store across all shards, partitioned
	// evenly (default 4 MiB per shard).
	StoreLogBytes int

	// MaxConns bounds concurrently open connections (default 1024;
	// negative = unlimited). Excess connections are shed: they get one
	// "ERR overloaded" line and are closed instead of queuing
	// unboundedly.
	MaxConns int
	// MaxInflight bounds requests admitted at once, queued plus
	// executing, across the whole group; each shard enforces an even
	// share (default 64 × Workers per shard; negative = unlimited).
	// Excess requests fast-reject with "ERR overloaded" without ever
	// touching a pool.
	MaxInflight int
	// RequestTimeout bounds a request's queue wait: a request not
	// picked up by a worker within it is shed — never executed — and
	// answers "ERR overloaded" (0 = no timeout).
	RequestTimeout time.Duration
	// MaxLineBytes bounds one request line (default 1 MiB). A longer
	// line answers "ERR line too long" and the connection is closed:
	// a single huge line must not grow server buffers without limit.
	MaxLineBytes int

	// IdleTimeout, when positive, bounds how long an accepted connection
	// may sit with no inbound bytes and no request in flight before the
	// server closes it — the defense against half-open clients pinning a
	// goroutine and an fd forever (0 = connections may idle without
	// limit, the pre-hardening behavior). A connection waiting on a
	// long-running request is not idle: the reaper re-arms while a
	// request is executing.
	IdleTimeout time.Duration
	// WriteTimeout, when positive, bounds each response write (and
	// flush): a client that stops draining — half-open, or a zero
	// receive window — fails the write and the connection closes,
	// instead of its handler goroutine blocking in a send forever
	// (0 = writes block without limit).
	WriteTimeout time.Duration

	// Brownout parameterizes each shard's class-aware degradation
	// controller (zero value = defaults; see internal/brownout). Set
	// BrownoutDisabled to recover the pre-brownout behavior where every
	// class sheds indiscriminately at the caps.
	Brownout         brownout.Config
	BrownoutDisabled bool
	// BrownoutPeriod is the controller's sampling cadence (default
	// 2ms): each tick folds the current pressure into the smoothed load
	// and applies transitions.
	BrownoutPeriod time.Duration
	// BrownoutDelayTarget normalizes the queue-delay signal: the oldest
	// queued arrival's wait divided by this is the controller's
	// DelayRatio (default: RequestTimeout, else 20ms).
	BrownoutDelayTarget time.Duration

	// Breaker parameterizes the per-shard, per-class circuit breakers
	// (zero value = defaults; see internal/breaker): a class whose
	// tasks keep panicking trips its shard's breaker and fast-rejects
	// with "ERR unavailable" until recovery probes succeed. Set
	// BreakerDisabled to admit every class regardless of failures.
	Breaker         breaker.Config
	BreakerDisabled bool
	// PanicInject, when non-nil, is consulted once per admitted request
	// (after every admission gate, before the pool submit); true
	// replaces the request's task body with one that panics mid-run.
	// This is the chaos hook fault-containment tests use to poison live
	// traffic deterministically (see chaos.PanicInjector).
	PanicInject func(class preemptible.Class) bool

	// Supervise parameterizes the shard supervisor: heartbeat health
	// checks that detect a wedged shard, drain it, rebuild it from a
	// fresh store partition, and re-admit it — with a restart budget
	// that escalates a flapping shard to terminal Dead (see
	// internal/shard). Off unless SuperviseEnabled is set: probes run
	// as real pool tasks and would perturb the exact pool-stat
	// accounting single-shard deployments rely on.
	Supervise        shard.SuperviseConfig
	SuperviseEnabled bool

	// WALDir, when non-empty, enables per-shard durability: shard i
	// write-ahead logs acknowledged SETs under WALDir/shard-<i>, and a
	// restart (supervised rebuild or whole-process crash) recovers each
	// partition from snapshot+log instead of starting empty. A SET is
	// acknowledged "OK" only after its record is fsynced (per WALSync);
	// a SET the log cannot promise answers "ERR wal".
	WALDir string
	// WALSync is the log's durability mode (default: group commit —
	// one fsync covers every append since the last, so the hot path
	// pays amortized not per-op sync cost).
	WALSync wal.SyncMode
	// SnapshotEvery snapshots each shard's partition after this many
	// logged SETs and truncates the covered log (0 = never).
	SnapshotEvery int
	// WALFS overrides the WAL's filesystem (chaos fault injection);
	// nil = the OS.
	WALFS wal.FS
	// WALLie builds a deliberately broken durability layer that acks
	// without logging — see shard.Config.WALLie. Test-only.
	WALLie bool
}

// Server serves the protocol over TCP.
type Server struct {
	rt    *preemptible.Runtime
	group *shard.Group

	maxConns     int
	reqTimeout   time.Duration
	maxLineBytes int
	idleTimeout  time.Duration
	writeTimeout time.Duration
	rr           atomic.Uint64 // round-robin cursor for keyless requests

	ln     net.Listener
	connWG sync.WaitGroup
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed sync.Once
	done   chan struct{}

	// Connection-plane counters: they fire before any shard is chosen,
	// so they are the only counters the server keeps itself. Every
	// admission counter lives in the shards (shard.ClassCounters);
	// MetricsV2 derives the group totals from those.
	shedConns, lineTooLong, idleClosed, writeTimeouts atomic.Uint64
}

// New builds a server on the given runtime.
func New(rt *preemptible.Runtime, cfg Config) *Server {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	maxConns := cfg.MaxConns
	if maxConns == 0 {
		maxConns = 1024
	}
	maxLine := cfg.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	// Group-level totals become even per-shard shares; zero keeps the
	// shard defaults (64 × Workers inflight, 4 MiB store — per shard).
	perInflight := cfg.MaxInflight
	if perInflight > 0 {
		perInflight = (perInflight + shards - 1) / shards
	}
	perStore := cfg.StoreLogBytes
	if perStore > 0 && shards > 1 {
		perStore /= shards
		if perStore < 64<<10 {
			perStore = 64 << 10
		}
	}
	scfg := cfg.Supervise
	scfg.Disabled = !cfg.SuperviseEnabled
	s := &Server{
		rt: rt,
		group: shard.NewGroup(rt, shards, shard.Config{
			Workers:             cfg.Workers,
			Quantum:             cfg.Quantum,
			StoreLogBytes:       perStore,
			MaxInflight:         perInflight,
			RequestTimeout:      cfg.RequestTimeout,
			Brownout:            cfg.Brownout,
			BrownoutDisabled:    cfg.BrownoutDisabled,
			BrownoutPeriod:      cfg.BrownoutPeriod,
			BrownoutDelayTarget: cfg.BrownoutDelayTarget,
			Breaker:             cfg.Breaker,
			BreakerDisabled:     cfg.BreakerDisabled,
			PanicInject:         cfg.PanicInject,
			WALDir:              cfg.WALDir,
			WALSync:             cfg.WALSync,
			SnapshotEvery:       cfg.SnapshotEvery,
			WALFS:               cfg.WALFS,
			WALLie:              cfg.WALLie,
		}, scfg),
		maxConns:     maxConns,
		reqTimeout:   cfg.RequestTimeout,
		maxLineBytes: maxLine,
		idleTimeout:  cfg.IdleTimeout,
		writeTimeout: cfg.WriteTimeout,
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
	}
	return s
}

// Serve accepts connections on ln until Close. It returns when the
// listener fails (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.connMu.Unlock()
			s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound address (after Serve started).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, waits for in-flight connections, and shuts the
// shard group down.
func (s *Server) Close() {
	s.closed.Do(func() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		// Force open connections closed: handleConn goroutines block in
		// Scan otherwise.
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		s.group.Close()
	})
}

// Shutdown drains the server gracefully — the SIGTERM path. Accepting
// stops immediately; each open connection finishes the request it is
// serving (closing s.done stops the per-connection loops after the
// in-flight response is written) and connections get until ctx's
// deadline before being force-closed; finally every shard drains under
// the same deadline, cancelling stragglers through the cancel-unwind
// path. Returns nil on a complete drain, ctx.Err() if the deadline
// forced any teardown. Concurrent with Close: whichever runs first
// wins, the other is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.closed.Do(func() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		connsDone := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(connsDone)
		}()
		select {
		case <-connsDone:
		case <-ctx.Done():
			err = ctx.Err()
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			<-connsDone
		}
		if derr := s.group.Drain(ctx); err == nil {
			err = derr
		}
	})
	return err
}

// Group exposes the shard group (per-shard health, counters, restart
// budget) for observability and tests.
func (s *Server) Group() *shard.Group { return s.group }

// Breaker exposes shard 0's breaker for the class (nil when disabled) —
// the single-shard view; multi-shard callers go through Group.
func (s *Server) Breaker(class preemptible.Class) *breaker.Breaker {
	return s.group.Shard(0).Breaker(class)
}

// PoolStats aggregates scheduling statistics across every shard and
// every shard generation (restarts lose nothing).
func (s *Server) PoolStats() preemptible.PoolStats { return s.group.PoolStats() }

// Brownout exposes shard 0's degradation controller (state history,
// smoothed load) — the single-shard view; multi-shard callers go
// through Group.
func (s *Server) Brownout() *brownout.Controller { return s.group.Shard(0).Brownout() }

// BrownoutState reports the most degraded shard's admission state —
// with one shard, exactly that shard's controller view.
func (s *Server) BrownoutState() brownout.State {
	worst := brownout.Normal
	for i := 0; i < s.group.N(); i++ {
		if st := s.group.Shard(i).BrownoutState(); st > worst {
			worst = st
		}
	}
	return worst
}

// inflightTotal sums currently admitted requests across shards (tests).
func (s *Server) inflightTotal() int64 {
	var n int64
	for i := 0; i < s.group.N(); i++ {
		n += s.group.Shard(i).Inflight()
	}
	return n
}

// errLine is the fast-reject response for the given brownout state:
// "ERR brownout" tells the client to retry soon (or retry as LC);
// "ERR overloaded" tells it to back off hard.
func errLine(st brownout.State) string {
	if st == brownout.Brownout {
		return "ERR brownout"
	}
	return "ERR overloaded"
}

// shedConn is the accept-side load shedder: the connection gets one
// fast rejection line — reflecting the current brownout state — and is
// closed, so clients see an explicit rejection instead of an unbounded
// accept queue.
func (s *Server) shedConn(conn net.Conn) {
	s.shedConns.Add(1)
	conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	io.WriteString(conn, errLine(s.BrownoutState())+"\n")         //nolint:errcheck
	conn.Close()
}

// handleConn serves one connection. Reading runs in its own goroutine
// so the socket is being watched even while a request executes in a
// pool: when the read side ends (disconnect, reset, shutdown) the
// reader closes gone, and the in-flight request — queued or executing —
// is cancelled instead of burning worker time for a client that will
// never see the response. Detection is best-effort under pipelining:
// a reader blocked handing over the next line is not in Scan and only
// observes the disconnect after that line is consumed.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	var act connActivity
	act.touch()
	gone := make(chan struct{}) // closed when the client's read side ends
	lines := make(chan string)  // request lines, reader → handler
	scanErr := make(chan error, 1)
	go func() {
		defer close(gone)
		defer close(lines)
		var src io.Reader = conn
		if s.idleTimeout > 0 {
			src = &idleReader{conn: conn, idle: s.idleTimeout, act: &act}
		}
		r := bufio.NewScanner(src)
		initial := 64 * 1024
		if initial > s.maxLineBytes {
			initial = s.maxLineBytes
		}
		r.Buffer(make([]byte, 0, initial), s.maxLineBytes)
		for r.Scan() {
			// The line counts as in flight from before the handler can
			// receive it, so the idle reaper never sees a quiet window
			// between handoff and execution.
			act.inflight.Add(1)
			select {
			case lines <- r.Text():
			case <-s.done:
				scanErr <- nil
				return
			}
		}
		scanErr <- r.Err()
	}()
	w := bufio.NewWriter(conn)
	for {
		var line string
		var ok bool
		select {
		case <-s.done:
			return
		case line, ok = <-lines:
		}
		if !ok {
			break
		}
		resp := s.handleRequest(line, gone)
		if s.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)) //nolint:errcheck
		}
		_, werr := w.WriteString(resp + "\n")
		if werr == nil {
			werr = w.Flush()
		}
		if werr != nil {
			if errors.Is(werr, os.ErrDeadlineExceeded) {
				s.writeTimeouts.Add(1)
			}
			return
		}
		act.inflight.Add(-1)
		act.touch()
	}
	// Read ended: a too-long line is a protocol violation the client
	// should hear about before the close, and an idle-reaped connection
	// is tallied; other read errors (reset, EOF) just close cleanly via
	// the deferred Close.
	err := <-scanErr
	switch {
	case err != nil && errors.Is(err, bufio.ErrTooLong):
		s.lineTooLong.Add(1)
		// A fresh write deadline: an earlier response's deadline may have
		// long passed, and this line should not block on a dead client.
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		w.WriteString("ERR line too long\n")                          //nolint:errcheck
		w.Flush()                                                     //nolint:errcheck
		// Drain the unread remainder of the over-long line so the close
		// sends FIN, not RST — otherwise the error line may never reach
		// the client.
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		io.Copy(io.Discard, conn)                                   //nolint:errcheck
	case err != nil && errors.Is(err, os.ErrDeadlineExceeded):
		s.idleClosed.Add(1)
	}
}

// connActivity tracks one connection's liveness for the idle reaper:
// last is the UnixNano of the latest inbound byte or completed
// response, inflight the requests handed to the handler and not yet
// answered.
type connActivity struct {
	last     atomic.Int64
	inflight atomic.Int32
}

func (a *connActivity) touch() { a.last.Store(time.Now().UnixNano()) }

// idleReader feeds a connection's Scanner while enforcing
// Config.IdleTimeout. Each Read arms a read deadline at last
// activity + idle; a deadline that fires while a request is executing
// (or after activity moved the bar) re-arms instead of failing, so
// only a connection that is truly quiet — no inbound bytes, nothing in
// flight — for a full idle period surfaces os.ErrDeadlineExceeded and
// ends the scan.
type idleReader struct {
	conn net.Conn
	idle time.Duration
	act  *connActivity
}

func (r *idleReader) Read(p []byte) (int, error) {
	for {
		deadline := time.Unix(0, r.act.last.Load()).Add(r.idle)
		if r.act.inflight.Load() > 0 {
			deadline = time.Now().Add(r.idle)
		}
		if err := r.conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
		n, err := r.conn.Read(p)
		if n > 0 {
			r.act.touch()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = nil // bytes arrived; the next Read re-arms
			}
			return n, err
		}
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
			return n, err
		}
		if r.act.inflight.Load() > 0 || time.Now().Before(time.Unix(0, r.act.last.Load()).Add(r.idle)) {
			continue // not idle: executing, or activity since arming
		}
		return 0, err
	}
}

// HandleLine processes one protocol line exactly as a connection
// handler would — parse, route, schedule, encode — with no disconnect
// tracking, and returns the response line. It is the in-process entry
// perfbench's traced run and the hot-path benchmarks use to drive the
// full request path without TCP.
func (s *Server) HandleLine(line string) string { return s.handleRequest(line, nil) }

// ParseLine exercises the request-parse hot path alone: field split
// plus metadata-token stripping, no routing or scheduling. It returns
// the remaining fields and the protocol error line ("" when valid).
// Exported so perfbench's traced run and the hot-path benchmarks can
// time the parser and count its allocs/op — the baseline the zero-alloc
// rewrite must beat.
func ParseLine(line string) (fields []string, errLine string) {
	fields, _, errLine = parseMeta(strings.Fields(line))
	return fields, errLine
}

// reqMeta is one request's scheduling metadata, parsed from trailing
// wire tokens: deadline is the hard completion deadline (zero = none),
// attempt the client's attempt number (0 = primary).
type reqMeta struct {
	deadline time.Time
	attempt  int64
}

// metaToken reports whether f has the shape of a trailing metadata
// token: 'D' or 'A' followed by an optionally signed run of digits.
// Shape alone claims the field — a malformed value ("D-5") is then a
// protocol error, not data, so a client never silently loses a
// deadline to a typo.
func metaToken(f string) bool {
	if len(f) < 2 || (f[0] != 'D' && f[0] != 'A') {
		return false
	}
	rest := f[1:]
	if rest[0] == '-' || rest[0] == '+' {
		rest = rest[1:]
	}
	if rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// parseMeta strips trailing metadata tokens — at most one D and one A,
// in either order — off a request's fields. It returns the remaining
// fields and the parsed metadata, or a non-empty protocol error line
// for a malformed or duplicate token. D is strict: it must be a
// positive in-range microsecond timestamp (negative, zero, and
// overflowing values are rejected); A must be non-negative.
func parseMeta(fields []string) ([]string, reqMeta, string) {
	var meta reqMeta
	var haveD, haveA bool
	for len(fields) > 0 {
		f := fields[len(fields)-1]
		if !metaToken(f) {
			break
		}
		v, err := strconv.ParseInt(f[1:], 10, 64)
		if f[0] == 'D' {
			if haveD {
				return nil, reqMeta{}, "ERR duplicate token " + f
			}
			haveD = true
			if err != nil || v <= 0 {
				return nil, reqMeta{}, "ERR bad token " + f
			}
			meta.deadline = time.UnixMicro(v)
		} else {
			if haveA {
				return nil, reqMeta{}, "ERR duplicate token " + f
			}
			haveA = true
			if err != nil || v < 0 {
				return nil, reqMeta{}, "ERR bad token " + f
			}
			meta.attempt = v
		}
		fields = fields[:len(fields)-1]
	}
	return fields, meta, ""
}

// keyless picks the shard for requests with no placement constraint
// (PING, COMPRESS): round-robin over healthy shards, falling back to
// the raw cursor when every shard is down — the request then settles
// through the normal Unavailable path with full accounting.
func (s *Server) keyless() int {
	i := int(s.rr.Add(1)) % s.group.N()
	if h := s.group.NextHealthy(i); h >= 0 {
		return h
	}
	return i
}

// handleRequest runs one request through its shard and returns the
// response line. Routing is resolved here, at parse time: keyed
// requests (GET/SET) go to the rendezvous shard of their key, MGET
// fans out per shard, keyless ones round-robin over healthy shards.
// gone, when closed, marks the client as disconnected: in-flight pool
// work for the request is cancelled (nil means no disconnect
// tracking). KV operations run as ClassLC, COMPRESS as ClassBE; STATS
// is answered inline, off the pools, so shard health and brownout
// state stay observable even while everything else sheds.
func (s *Server) handleRequest(line string, gone <-chan struct{}) string {
	fields := strings.Fields(line)
	fields, meta, metaErr := parseMeta(fields)
	if metaErr != "" {
		return metaErr
	}
	if len(fields) == 0 {
		return "ERR empty request"
	}
	var resp string
	run := func(idx int, class preemptible.Class, task preemptible.Task) {
		if msg := s.runTask(idx, class, task, meta, gone); msg != "" {
			resp = msg
		}
	}
	switch strings.ToUpper(fields[0]) {
	case "PING":
		run(s.keyless(), preemptible.ClassLC, func(ctx *preemptible.Ctx) { resp = "PONG" })
	case "STATS":
		return s.statsLine()
	case "STATS2":
		return s.statsV2Line()
	case "GET":
		if len(fields) != 2 {
			return "ERR GET <key>"
		}
		key := []byte(fields[1])
		idx := s.group.Route(key)
		sh := s.group.Shard(idx)
		run(idx, preemptible.ClassLC, func(ctx *preemptible.Ctx) {
			res := sh.StoreGet(key)
			if res.Hit {
				resp = "VALUE " + string(res.Value)
			} else {
				resp = "NOT_FOUND"
			}
		})
	case "SET":
		if len(fields) < 3 {
			return "ERR SET <key> <value>"
		}
		key := []byte(fields[1])
		value := strings.Join(fields[2:], " ")
		idx := s.group.Route(key)
		sh := s.group.Shard(idx)
		run(idx, preemptible.ClassLC, func(ctx *preemptible.Ctx) {
			// The ack gate: "OK" means the record is applied AND durable
			// (logged + fsynced when a WAL is configured). A write the
			// log cannot promise answers "ERR wal" — the store may have
			// changed, but the client was never promised anything.
			ok, err := sh.DurableSet(key, []byte(value))
			switch {
			case err != nil:
				resp = "ERR wal"
			case ok:
				resp = "OK"
			default:
				resp = "ERR value too large"
			}
		})
	case "MGET":
		if len(fields) < 2 {
			return "ERR MGET <key> [<key> ...]"
		}
		return s.handleMGet(fields[1:], meta, gone)
	case "COMPRESS":
		if len(fields) != 2 {
			return "ERR COMPRESS <kilobytes>"
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil || kb <= 0 || kb > 1024 {
			return "ERR COMPRESS wants 1..1024 kilobytes"
		}
		idx := s.keyless()
		sh := s.group.Shard(idx)
		run(idx, preemptible.ClassBE, func(ctx *preemptible.Ctx) {
			eng := sh.Engine()
			block := bejob.MakeBlock(1024, uint64(kb))
			var in, out int
			for i := 0; i < kb; i++ {
				n, err := eng.CompressBlock(block)
				if err != nil {
					resp = "ERR " + err.Error()
					return
				}
				in += len(block)
				out += n
				ctx.Checkpoint() // safepoint between kilobytes
			}
			resp = fmt.Sprintf("COMPRESSED %d %d", in, out)
		})
	default:
		return "ERR unknown command " + fields[0]
	}
	return resp
}

// runTask pushes one request task through shard idx's admission path
// (see shard.Shard.Do for the gate order and the counters it keeps). It
// returns "" when the task ran, or the protocol error line when it was
// shed. An already-past deadline is deliberately NOT fast-rejected at
// admission: the request is submitted and expires at dequeue, so the
// shard's per-class expiry counters and the pools' agree exactly.
func (s *Server) runTask(idx int, class preemptible.Class, task preemptible.Task, meta reqMeta, gone <-chan struct{}) string {
	return settle(s.group.Do(idx, class, task, shard.DoOptions{
		Deadline: meta.deadline,
		Attempt:  meta.attempt,
		Gone:     gone,
	}))
}

// settle maps one shard disposition to its response line ("" for OK;
// Failed answers "ERR internal"). It counts nothing: Shard.Do already
// counted the outcome.
func settle(res shard.Result) string {
	switch res.Outcome {
	case shard.OK:
		return ""
	case shard.RejectedShed, shard.RejectedInflight, shard.Timeout:
		return "ERR overloaded"
	case shard.RejectedBrownout:
		return "ERR brownout"
	case shard.Unavailable:
		return "ERR unavailable"
	case shard.CancelledQueued, shard.CancelledExecuting:
		return "ERR cancelled"
	case shard.ExpiredQueued, shard.ExpiredExecuting:
		return "ERR deadline"
	case shard.Evicted:
		return errLine(res.BState)
	}
	return "ERR internal"
}

// failToken maps a failed MGET shard leg to its per-key result token.
func failToken(o shard.Outcome) string {
	switch o {
	case shard.Unavailable:
		return "UNAVAILABLE"
	case shard.ExpiredQueued, shard.ExpiredExecuting:
		return "DEADLINE"
	case shard.RejectedShed, shard.RejectedInflight, shard.Timeout:
		return "OVERLOADED"
	case shard.RejectedBrownout, shard.Evicted:
		return "BROWNOUT"
	case shard.CancelledQueued, shard.CancelledExecuting:
		return "CANCELLED"
	default:
		return "ERROR"
	}
}

// handleMGet is the multi-key fan-out: keys are grouped by rendezvous
// shard, each shard gets one LC leg carrying the request's wire
// deadline, and the legs run concurrently. Results are per key, in
// request order, with explicit partial failure: a leg that cannot run —
// its shard is Restarting/Dead, shedding, draining, or the leg expired
// — fails only its own keys with a failure token while every other
// leg's keys come back with real values. Each leg is one Shard.Do call,
// counted exactly like a single-key request, so counter conservation
// sees MGET as N(shards touched) requests, not one.
func (s *Server) handleMGet(keys []string, meta reqMeta, gone <-chan struct{}) string {
	tokens := make([]string, len(keys))
	byShard := make(map[int][]int)
	for i, k := range keys {
		idx := s.group.Route([]byte(k))
		byShard[idx] = append(byShard[idx], i)
	}
	var wg sync.WaitGroup
	for idx, kidx := range byShard {
		wg.Add(1)
		go func(idx int, kidx []int) {
			defer wg.Done()
			sh := s.group.Shard(idx)
			// The leg's task fills its keys' tokens with no safepoint in
			// between: it either ran (every token set) or it did not run
			// at all, so a failure token never overwrites a real value.
			res := s.group.Do(idx, preemptible.ClassLC, func(ctx *preemptible.Ctx) {
				sh.StoreView(func(st *mica.Store) {
					for _, i := range kidx {
						r := st.Get([]byte(keys[i]))
						if r.Hit {
							tokens[i] = "=" + url.QueryEscape(string(r.Value))
						} else {
							tokens[i] = "NOT_FOUND"
						}
					}
				})
			}, shard.DoOptions{Deadline: meta.deadline, Attempt: meta.attempt, Gone: gone})
			if res.Outcome != shard.OK {
				tok := failToken(res.Outcome)
				for _, i := range kidx {
					tokens[i] = tok
				}
			}
		}(idx, kidx)
	}
	wg.Wait()
	return "MVALUES " + strings.Join(tokens, " ")
}

// statsLine renders the STATS response from one STATS2 snapshot: the
// most degraded shard's controller state and load, the group-total
// admission counters (rejections summed over the states that issued
// them), then one field block per shard — health, restart count,
// brownout state, and per-class request/unavailable tallies — so a
// partial outage is visible as exactly one degraded block. Breaker
// state and trips are shard 0's.
func (s *Server) statsLine() string {
	m := s.MetricsV2()
	lc, be := m.Totals["lc"], m.Totals["be"]
	brk := func(class preemptible.Class) (string, uint64) {
		if b := s.group.Shard(0).Breaker(class); b != nil {
			return b.State(time.Now()).String(), b.Trips()
		}
		return "off", 0
	}
	lcState, lcTrips := brk(preemptible.ClassLC)
	beState, beTrips := brk(preemptible.ClassBE)
	var b strings.Builder
	fmt.Fprintf(&b,
		"STATS state=%s load=%.3f lc.requests=%d lc.rejected=%d lc.timeouts=%d be.requests=%d be.rejected=%d be.evicted=%d be.timeouts=%d"+
			" lc.failed=%d be.failed=%d lc.unavailable=%d be.unavailable=%d breaker.lc=%s breaker.lc.trips=%d breaker.be=%s breaker.be.trips=%d"+
			" lc.expired.queued=%d lc.expired.executing=%d be.expired.queued=%d be.expired.executing=%d lc.reattempts=%d be.reattempts=%d",
		m.State, m.Load,
		lc.Requests, lc.rejected(), lc.Timeouts,
		be.Requests, be.rejected(), be.Evicted, be.Timeouts,
		lc.Failed, be.Failed, lc.Unavailable, be.Unavailable,
		lcState, lcTrips, beState, beTrips,
		lc.ExpiredQueued, lc.ExpiredExecuting, be.ExpiredQueued, be.ExpiredExecuting,
		lc.Reattempts, be.Reattempts,
	)
	fmt.Fprintf(&b, " shards=%d", m.Shards)
	for _, sh := range m.PerShard {
		i, slc, sbe := sh.Shard, sh.Classes["lc"], sh.Classes["be"]
		fmt.Fprintf(&b, " s%d.health=%s s%d.restarts=%d s%d.state=%s s%d.lc.requests=%d s%d.be.requests=%d s%d.unavailable=%d",
			i, sh.Health, i, sh.Restarts, i, sh.Brownout,
			i, slc.Requests, i, sbe.Requests, i, slc.Unavailable+sbe.Unavailable)
	}
	return b.String()
}
