// Package faultproxy is a TCP fault-injection proxy for exercising the
// fleet's failure paths deterministically: it sits between a client (the
// router, a serve.Client, curl) and a real backend and breaks the
// connection in controlled ways — refuse, delay, reset, truncate the
// response mid-stream, flip a byte. Tests flip the mode at runtime, so
// one proxied backend can be healthy, then dead, then healthy again
// without restarting anything.
//
// This is a test harness, not a production component: it lives next to
// the fleet package so the CI chaos smoke and the -race rebalance hammer
// can inject exactly the failure they assert on.
package faultproxy

import (
	"io"
	"net"
	"sync"
	"time"
)

// Mode selects the injected fault.
type Mode int

const (
	// Pass forwards traffic untouched.
	Pass Mode = iota
	// Refuse accepts and immediately closes, before any bytes move — a
	// dead process whose port is still bound.
	Refuse
	// Delay forwards traffic after sleeping the configured delay on the
	// first backend byte — a stalled or overloaded backend (a straggler).
	Delay
	// Reset closes the client connection with SO_LINGER=0 after the
	// configured number of response bytes, producing a TCP RST — a
	// kill -9 mid-response.
	Reset
	// Truncate cleanly closes the client connection after the configured
	// number of response bytes — a dropped connection mid-stream (the
	// NDJSON trailer contract's reason to exist).
	Truncate
	// FlipByte forwards everything but XORs one bit of the response byte
	// at the configured offset — corruption in flight.
	FlipByte
	// Stall accepts the connection and keeps reading the request, but
	// never sends a single response byte — a backend that is alive at the
	// TCP level yet hangs forever, the failure deadlines exist for. The
	// connection stays pinned until the client gives up or CloseActive
	// severs it.
	Stall
)

// Config parameterizes a mode.
type Config struct {
	Mode Mode
	// Delay is the sleep for Mode Delay.
	Delay time.Duration
	// After is the count of backend→client bytes forwarded before Reset
	// or Truncate cut the connection, and the offset of the corrupted
	// byte for FlipByte.
	After int64
}

// Proxy is a TCP proxy with switchable fault injection. All methods are
// safe for concurrent use.
type Proxy struct {
	target string
	l      net.Listener

	mu    sync.Mutex
	cfg   Config
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// New starts a proxy on 127.0.0.1:0 forwarding to target ("host:port").
// It begins in Pass mode.
func New(target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, l: l, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// Set switches the fault configuration for connections accepted from now
// on (in-flight connections keep the config they started with).
func (p *Proxy) Set(cfg Config) {
	p.mu.Lock()
	p.cfg = cfg
	p.mu.Unlock()
}

// CloseActive severs every in-flight connection — the crash part of a
// crash-and-recover scenario, independent of the configured mode.
func (p *Proxy) CloseActive() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops accepting, severs everything in flight, and waits for the
// forwarding goroutines to finish.
func (p *Proxy) Close() {
	p.l.Close()
	p.CloseActive()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		cfg := p.cfg
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c, cfg)
		}()
	}
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(client net.Conn, cfg Config) {
	defer p.forget(client)
	defer client.Close()
	if cfg.Mode == Refuse {
		return
	}
	if cfg.Mode == Stall {
		// Drain the request forever and answer nothing; the backend is
		// never dialed. Returns when the client hangs up or CloseActive
		// cuts the connection.
		io.Copy(io.Discard, client)
		return
	}
	backend, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer p.forget(backend)
	defer backend.Close()

	done := make(chan struct{}, 2)
	// client → backend: always clean (the faults model broken responses;
	// a broken request is just a client bug).
	go func() {
		io.Copy(backend, client)
		// Half-close so the backend sees EOF on the request side without
		// losing the response side.
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// backend → client: through the fault.
	go func() {
		p.copyResponse(client, backend, cfg)
		// Propagate the backend's EOF: half-close the client's read side so
		// it sees the response end even while its request side stays open.
		// (Truncate/Reset already closed the connection outright; the extra
		// CloseWrite on a closed conn is a harmless error.)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

func (p *Proxy) copyResponse(client, backend net.Conn, cfg Config) {
	switch cfg.Mode {
	case Delay:
		// Wait for the first backend byte, then stall before forwarding.
		buf := make([]byte, 32*1024)
		n, err := backend.Read(buf)
		if err != nil {
			return
		}
		time.Sleep(cfg.Delay)
		if _, err := client.Write(buf[:n]); err != nil {
			return
		}
		io.Copy(client, backend)
	case Reset:
		io.CopyN(client, backend, max(cfg.After, 1))
		if tc, ok := client.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		client.Close()
		backend.Close()
	case Truncate:
		io.CopyN(client, backend, max(cfg.After, 1))
		client.Close()
		backend.Close()
	case FlipByte:
		io.Copy(&flipWriter{w: client, at: cfg.After}, backend)
	default:
		io.Copy(client, backend)
	}
}

// flipWriter XORs bit 0 of the byte at stream offset `at`.
type flipWriter struct {
	w   io.Writer
	at  int64
	off int64
}

func (f *flipWriter) Write(b []byte) (int, error) {
	if f.off <= f.at && f.at < f.off+int64(len(b)) {
		// Copy before corrupting: the caller owns b.
		c := append([]byte(nil), b...)
		c[f.at-f.off] ^= 1
		b = c
	}
	f.off += int64(len(b))
	return f.w.Write(b)
}
