package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one pipelined connection to the server.
type client struct {
	c net.Conn
	r *bufio.Reader
	w []byte // pending writes of the current batch
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// tally counts outcomes across a run. Refusals (any ERR answer, a read
// that timed out) are failures; a wrong answer is also a check failure.
type tally struct {
	attempted, failed, wrong atomic.Int64
	// beDeferred counts BE requests the server deferred ("ERR brownout")
	// and the client sent again; they are neither attempts nor failures.
	beDeferred atomic.Int64
	mu         sync.Mutex
	firstWrong []string
	// plant is a busy wait the driver adds to every measured response
	// before stamping it: the planted regression of the self-check. It
	// costs CPU per op as well as latency, and lives in the driver only.
	plant time.Duration
}

func (t *tally) mismatch(format string, args ...any) {
	t.wrong.Add(1)
	t.mu.Lock()
	if len(t.firstWrong) < 5 {
		t.firstWrong = append(t.firstWrong, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// clock is the driver's monotonic time base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// sleepNs waits d. time.Sleep rounds short waits up to about 1 ms on
// Linux (the poller's timeout is in milliseconds), so waits under 2 ms
// block the thread in nanosleep instead.
func sleepNs(d int64) {
	if d > 2e6 {
		time.Sleep(time.Duration(d - 1e6))
		return
	}
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR only shortens the wait; the caller re-checks
}

// maxBatch bounds how many due requests one write carries.
const maxBatch = 256

// runPhase sends p open-loop on clients (request conn i goes to
// clients[i]), reads and checks every response, and fills p.sent and
// p.done. It returns when every response has arrived or failed.
func runPhase(p *phase, clients []*client, g *gen, t *tally) {
	clk := clock{base: time.Now()}
	var wg sync.WaitGroup
	deadline := clk.base.Add(p.dur + 60*time.Second)
	for ci, cl := range clients {
		if len(p.byConn[ci]) == 0 {
			continue
		}
		cl.c.SetReadDeadline(deadline) //nolint:errcheck // a failed deadline only loses the timeout
		wg.Add(1)
		go func(cl *client, idx []int32) {
			defer wg.Done()
			receive(p, cl, idx, g, t, clk)
		}(cl, p.byConn[ci])
	}
	send(p, clients, clk)
	wg.Wait()
	t.attempted.Add(int64(len(p.reqs)))
}

// send writes every request at its due time, batching those already due.
func send(p *phase, clients []*client, clk clock) {
	for i := 0; i < len(p.reqs); {
		now := clk.now()
		if gap := p.reqs[i].due - now; gap > 0 {
			sleepNs(gap)
			continue
		}
		for n := 0; i < len(p.reqs) && p.reqs[i].due <= now && n < maxBatch; i, n = i+1, n+1 {
			r := &p.reqs[i]
			cl := clients[r.conn]
			cl.w = append(cl.w, p.buf[r.lo:r.hi]...)
			p.sent[i] = now
		}
		for _, cl := range clients {
			if len(cl.w) > 0 {
				// A failed write shows up as read errors on the same
				// connection, which count every unanswered request.
				cl.c.Write(cl.w) //nolint:errcheck
				cl.w = cl.w[:0]
			}
		}
	}
}

var (
	respOK    = []byte("OK\n")
	respValue = []byte("VALUE ")
	respErr   = []byte("ERR")
	// respBrownout defers a BE request; the client retries it.
	respBrownout = []byte("ERR brownout\n")
)

// receive reads the responses of one connection in order and checks each
// against the model.
func receive(p *phase, cl *client, idx []int32, g *gen, t *tally, clk clock) {
	want := make([]byte, 0, 16+g.w.ValueBytes)
	for k, i := range idx {
		line, err := cl.r.ReadSlice('\n')
		if err != nil {
			// Timed out or closed: every request still unanswered failed.
			for _, j := range idx[k:] {
				p.done[j] = -1
			}
			t.failed.Add(int64(len(idx) - k))
			t.mismatch("%s: conn read: %v", p.name, err)
			return
		}
		if t.plant > 0 {
			for end := time.Now().Add(t.plant); time.Now().Before(end); {
			}
		}
		now := clk.now()
		r := &p.reqs[i]
		p.done[i] = now
		if bytes.HasPrefix(line, respErr) {
			// A refused LC request fails; a refused SET also leaves the
			// model unsure of the key, so it fails the check too.
			p.done[i] = -1
			t.failed.Add(1)
			t.mismatch("%s: %s key %d answered %q", p.name, [...]string{"GET", "SET"}[r.kind], r.rank, bytes.TrimSpace(line))
			continue
		}
		if r.kind == opSet {
			if !bytes.Equal(line, respOK) {
				t.mismatch("%s: SET key %d answered %q", p.name, r.rank, bytes.TrimSpace(line))
			}
			continue
		}
		want = g.appendValue(append(want[:0], respValue...), int(r.rank), r.ver)
		want = append(want, '\n')
		if !bytes.Equal(line, want) {
			t.mismatch("%s: GET key %d version %d answered %.40q", p.name, r.rank, r.ver, bytes.TrimSpace(line))
		}
	}
}

// beStream is a closed-loop COMPRESS stream on its own connection: one
// request outstanding, the next sent when the previous answers.
type beStream struct {
	cl      *client
	kb      int
	line    []byte
	wantOut int // compressed bytes the server must report per request

	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	ends []int64 // completion times, ns after clk.base
	clk  clock
}

func startBE(cl *client, kb, wantOut int, t *tally) *beStream {
	b := &beStream{
		cl: cl, kb: kb, wantOut: wantOut,
		line: []byte("COMPRESS " + strconv.Itoa(kb) + "\n"),
		stop: make(chan struct{}), done: make(chan struct{}),
		clk: clock{base: time.Now()},
	}
	cl.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	want := []byte(fmt.Sprintf("COMPRESSED %d %d\n", kb*1024, wantOut))
	go func() {
		defer close(b.done)
		for {
			select {
			case <-b.stop:
				return
			default:
			}
			if _, err := cl.c.Write(b.line); err != nil {
				t.attempted.Add(1)
				t.failed.Add(1)
				t.mismatch("be: write: %v", err)
				return
			}
			line, err := cl.r.ReadSlice('\n')
			if err != nil {
				t.failed.Add(1)
				t.mismatch("be: read: %v", err)
				return
			}
			switch {
			case bytes.Equal(line, respBrownout):
				// The server defers BE under LC pressure and asks the
				// client to retry soon: back off and send it again.
				t.beDeferred.Add(1)
				time.Sleep(time.Millisecond)
			case bytes.HasPrefix(line, respErr):
				t.failed.Add(1)
				t.mismatch("be: COMPRESS %d answered %q", kb, bytes.TrimSpace(line))
			case !bytes.Equal(line, want):
				t.mismatch("be: COMPRESS %d answered %q, want %q", kb, bytes.TrimSpace(line), bytes.TrimSpace(want))
			default:
				t.attempted.Add(1)
				now := b.clk.now()
				b.mu.Lock()
				b.ends = append(b.ends, now)
				b.mu.Unlock()
			}
		}
	}()
	return b
}

// kbBetween is the COMPRESS kilobytes completed in [from, to).
func (b *beStream) kbBetween(from, to time.Time) float64 {
	f, e := int64(from.Sub(b.clk.base)), int64(to.Sub(b.clk.base))
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, x := range b.ends {
		if x >= f && x < e {
			n++
		}
	}
	return float64(n * b.kb)
}

// halt stops the stream after its outstanding request answers.
func (b *beStream) halt() {
	b.cl.c.SetReadDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	close(b.stop)
	<-b.done
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
