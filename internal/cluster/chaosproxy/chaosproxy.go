// Package chaosproxy is a fault-injecting TCP proxy for cluster tests.
// It sits between a coordinator and a worker (or any client/server pair)
// and misbehaves on command: dropping new connections, delaying them,
// blackholing established ones (accept, then read and discard forever —
// the peer sees a hang, not an error), or resetting them (RST via
// SO_LINGER 0). Faults are chosen deterministically from a seed so a
// failing chaos test replays bit-identically.
//
// The proxy changes behaviour only at connection granularity; bytes on a
// healthy connection flow unmodified. That matches the failure modes the
// coordinator's retry/breaker stack is built for: dead nodes, dropped
// packets, and half-open TCP states — not payload corruption, which the
// journal's CRCs cover separately.
package chaosproxy

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the fault applied to one inbound connection.
type Mode int

const (
	// Pass proxies the connection faithfully.
	Pass Mode = iota
	// Drop closes the inbound connection immediately without dialing
	// upstream — the client sees a reset or EOF during its request.
	Drop
	// Delay holds the inbound connection for the configured latency
	// before proxying it (then passes traffic normally).
	Delay
	// Blackhole accepts and then swallows the connection: bytes are read
	// and discarded, nothing is forwarded, nothing comes back. The client
	// hangs until its own deadline fires.
	Blackhole
	// Reset proxies nothing and slams the inbound connection shut with
	// an RST (SO_LINGER 0) after a short read.
	Reset
)

// String names the mode for logs.
func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Blackhole:
		return "blackhole"
	case Reset:
		return "reset"
	}
	return "unknown"
}

// Plan weights the per-connection fault draw. Weights are relative;
// all-zero means every connection passes.
type Plan struct {
	Pass      int
	Drop      int
	Delay     int
	Blackhole int
	Reset     int
	// Latency is the hold applied by Delay connections (0 = 50ms).
	Latency time.Duration
}

func (p Plan) total() int { return p.Pass + p.Drop + p.Delay + p.Blackhole + p.Reset }

// draw picks a mode from the plan's weights using r.
func (p Plan) draw(r *rand.Rand) Mode {
	total := p.total()
	if total <= 0 {
		return Pass
	}
	n := r.Intn(total)
	for _, w := range []struct {
		mode   Mode
		weight int
	}{{Pass, p.Pass}, {Drop, p.Drop}, {Delay, p.Delay}, {Blackhole, p.Blackhole}, {Reset, p.Reset}} {
		if n < w.weight {
			return w.mode
		}
		n -= w.weight
	}
	return Pass
}

// Counters tallies connections by applied fault.
type Counters struct {
	Accepted  int64 `json:"accepted"`
	Passed    int64 `json:"passed"`
	Dropped   int64 `json:"dropped"`
	Delayed   int64 `json:"delayed"`
	Blackhole int64 `json:"blackholed"`
	Resets    int64 `json:"resets"`
}

// Proxy is one listening fault injector in front of a fixed upstream.
type Proxy struct {
	upstream string
	ln       net.Listener
	rng      *rand.Rand // guarded by mu
	mu       sync.Mutex
	plan     Plan

	accepted  atomic.Int64
	passed    atomic.Int64
	dropped   atomic.Int64
	delayed   atomic.Int64
	blackhole atomic.Int64
	resets    atomic.Int64

	closed  atomic.Bool
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}
}

// New starts a proxy on a fresh loopback port in front of upstream
// (host:port). The seed fixes the fault stream; the initial plan passes
// everything — arm faults with SetPlan.
func New(upstream string, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Proxy{
		upstream: upstream,
		ln:       ln,
		rng:      rand.New(rand.NewSource(seed)),
		plan:     Plan{Pass: 1},
		ctx:      ctx,
		cancel:   cancel,
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address (dial this instead of the
// upstream).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetPlan swaps the fault plan; it applies to subsequently accepted
// connections.
func (p *Proxy) SetPlan(plan Plan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plan = plan
}

// Snapshot returns the per-fault connection tallies.
func (p *Proxy) Snapshot() Counters {
	return Counters{
		Accepted:  p.accepted.Load(),
		Passed:    p.passed.Load(),
		Dropped:   p.dropped.Load(),
		Delayed:   p.delayed.Load(),
		Blackhole: p.blackhole.Load(),
		Resets:    p.resets.Load(),
	}
}

// Close stops accepting, severs every live connection, and waits for the
// proxy's goroutines.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	p.cancel()
	err := p.ln.Close()
	p.connsMu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.connsMu.Unlock()
	p.wg.Wait()
	return err
}

// track registers c so Close can sever it. It reports false once Close
// has begun: a connection accepted just before Close would otherwise miss
// Close's sweep and hang its serve goroutine (and Close) forever.
func (p *Proxy) track(c net.Conn) bool {
	p.connsMu.Lock()
	defer p.connsMu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.connsMu.Lock()
	delete(p.conns, c)
	p.connsMu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.mu.Lock()
		mode := p.plan.draw(p.rng)
		latency := p.plan.Latency
		p.mu.Unlock()
		if latency <= 0 {
			latency = 50 * time.Millisecond
		}
		p.wg.Add(1)
		go p.serve(conn, mode, latency)
	}
}

func (p *Proxy) serve(conn net.Conn, mode Mode, latency time.Duration) {
	defer p.wg.Done()
	if !p.track(conn) {
		conn.Close()
		return
	}
	defer p.untrack(conn)
	switch mode {
	case Drop:
		p.dropped.Add(1)
		conn.Close()
	case Blackhole:
		p.blackhole.Add(1)
		// Swallow bytes until the peer gives up or the proxy closes.
		_, _ = io.Copy(io.Discard, conn)
		conn.Close()
	case Reset:
		p.resets.Add(1)
		// Read a little so the client commits to its request, then RST.
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, _ = conn.Read(buf)
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		conn.Close()
	case Delay:
		p.delayed.Add(1)
		t := time.NewTimer(latency)
		select {
		case <-p.ctx.Done():
			t.Stop()
			conn.Close()
			return
		case <-t.C:
		}
		p.pipe(conn)
	default:
		p.passed.Add(1)
		p.pipe(conn)
	}
}

// pipe proxies conn to the upstream bidirectionally until either side
// closes.
func (p *Proxy) pipe(conn net.Conn) {
	up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		conn.Close()
		return
	}
	p.track(up)
	defer p.untrack(up)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = io.Copy(up, conn)
		closeWrite(up)
	}()
	go func() {
		defer wg.Done()
		_, _ = io.Copy(conn, up)
		closeWrite(conn)
	}()
	wg.Wait()
	conn.Close()
	up.Close()
}

// closeWrite half-closes a TCP connection so the peer sees EOF while the
// other direction keeps flowing.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		return
	}
	c.Close()
}
