package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/liveserver"
	"repro/internal/wal"
	"repro/preemptible"
)

// rig is one in-process server listening on loopback.
type rig struct {
	rt        *preemptible.Runtime
	srv       *liveserver.Server
	addr      string
	serveDone chan error
}

// serverOpts are what a traced run adds around the program: a listener
// wrapper that stamps requests and a WAL filesystem that counts bytes.
type serverOpts struct {
	wrap  func(net.Listener) net.Listener
	walFS wal.FS
}

func startServer(w *workload, walDir string, o serverOpts) (*rig, error) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	cfg := liveserver.Config{
		Shards:        w.Shards,
		Workers:       w.Workers,
		Quantum:       w.quantum(),
		StoreLogBytes: w.StoreLogBytes,
	}
	if w.WAL == "group" {
		cfg.WALDir = walDir
		cfg.WALSync = wal.SyncGroup
		cfg.SnapshotEvery = w.SnapshotEvery
		cfg.WALFS = o.walFS
	}
	srv := liveserver.New(rt, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		rt.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{rt: rt, srv: srv, addr: ln.Addr().String(), serveDone: make(chan error, 1)}
	if o.wrap != nil {
		ln = o.wrap(ln)
	}
	go func() { r.serveDone <- srv.Serve(ln) }()
	return r, nil
}

func (r *rig) close() error {
	r.srv.Close()
	err := <-r.serveDone
	r.rt.Close()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// session is a server with the driver's connections to it.
type session struct {
	*rig
	lc []*client
	be *client // nil unless the workload colocates BE
}

func connect(r *rig, w *workload) (*session, error) {
	s := &session{rig: r}
	for i := 0; i < w.LCConns; i++ {
		c, err := dial(r.addr)
		if err != nil {
			s.hangup()
			return nil, err
		}
		s.lc = append(s.lc, c)
	}
	if w.BEKB > 0 || w.BEAloneKB > 0 {
		c, err := dial(r.addr)
		if err != nil {
			s.hangup()
			return nil, err
		}
		s.be = c
	}
	return s, nil
}

func (s *session) hangup() {
	for _, c := range s.lc {
		c.c.Close()
	}
	if s.be != nil {
		s.be.c.Close()
	}
	s.lc, s.be = nil, nil
}

func (s *session) shutdown() error {
	s.hangup()
	return s.close()
}

// ping does one round trip: the first request the server serves.
func (s *session) ping() error {
	c := s.lc[0]
	c.c.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := c.c.Write([]byte("PING\n")); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	if string(line) != "PONG\n" {
		return fmt.Errorf("ping answered %q", line)
	}
	return nil
}

// setup builds a server, preloads every key over the wire and, for a
// durable workload, closes and reopens it so WAL recovery runs. It
// returns the session ready to serve and the seconds until the first
// request after preload (and reopen) was answered.
func setup(w *workload, g *gen, walDir string, o serverOpts, t *tally) (*session, float64, error) {
	if err := os.RemoveAll(walDir); err != nil {
		return nil, 0, fmt.Errorf("clear wal dir: %w", err)
	}
	pre := g.preload()
	runtime.GC()
	t0 := time.Now()
	r, err := startServer(w, walDir, o)
	if err != nil {
		return nil, 0, err
	}
	s, err := connect(r, w)
	if err != nil {
		r.close() //nolint:errcheck
		return nil, 0, err
	}
	runPhase(pre, s.lc, g, t)
	if w.WAL != "off" {
		if s, err = reopen(s, w, walDir, o); err != nil {
			return nil, 0, err
		}
	}
	if err := s.ping(); err != nil {
		s.shutdown() //nolint:errcheck
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// reopen closes the server and starts a new one on the same WAL
// directory, which recovers every acknowledged SET.
func reopen(s *session, w *workload, walDir string, o serverOpts) (*session, error) {
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	release()
	r, err := startServer(w, walDir, o)
	if err != nil {
		return nil, err
	}
	ns, err := connect(r, w)
	if err != nil {
		r.close() //nolint:errcheck
		return nil, err
	}
	return ns, nil
}

// release frees a discarded setup's memory so the next one starts from
// the same heap.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func walDirFor(workdir, workload string) string {
	return filepath.Join(workdir, "wal-"+workload)
}
