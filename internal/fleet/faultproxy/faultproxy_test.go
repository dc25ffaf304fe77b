package faultproxy

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// payloadServer is a raw TCP backend writing a fixed payload to every
// connection and closing. Raw TCP (not HTTP) keeps the byte offsets the
// faults act on exact — no header or chunk framing to account for.
func payloadServer(t *testing.T, payload []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(c)
		}
	}()
	return l.Addr().String()
}

// fetch dials addr and reads until the connection ends. A failed dial
// comes back as dialErr, apart from the read outcome err; mustFetch is
// fetch for the tests in which the dial must succeed.
func fetch(addr string) (got []byte, dialErr, err error) {
	c, dialErr := net.DialTimeout("tcp", addr, 5*time.Second)
	if dialErr != nil {
		return nil, dialErr, nil
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err = io.ReadAll(c)
	return got, nil, err
}

func mustFetch(t *testing.T, addr string) ([]byte, error) {
	t.Helper()
	got, dialErr, err := fetch(addr)
	if dialErr != nil {
		t.Fatalf("dial proxy: %v", dialErr)
	}
	return got, err
}

func testPayload() []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = byte('a' + i%26)
	}
	return p
}

func TestPassForwardsIntact(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := mustFetch(t, p.Addr())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pass mode: got %d bytes (err %v), want the %d-byte payload", len(got), err, len(payload))
	}
}

func TestTruncateCutsAfterN(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Config{Mode: Truncate, After: 10})
	got, err := mustFetch(t, p.Addr())
	if err != nil {
		t.Fatalf("truncate is a clean close, want no read error, got %v", err)
	}
	if !bytes.Equal(got, payload[:10]) {
		t.Fatalf("truncate after 10: got %q, want %q", got, payload[:10])
	}
}

func TestResetAbortsConnection(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Config{Mode: Reset, After: 10})
	got, dialErr, err := fetch(p.Addr())
	if dialErr != nil {
		// The proxy accepts, forwards 10 bytes and resets. On a loaded host
		// that RST can arrive before the dial checks the outcome of its
		// non-blocking connect, so the dial itself fails with the reset
		// under test, one call early. Any other dial error is a failure.
		if !errors.Is(dialErr, syscall.ECONNRESET) {
			t.Fatalf("dial proxy: %v", dialErr)
		}
		return
	}
	// An RST surfaces as a read error (connection reset); the bytes that
	// made it out first may or may not be delivered, but the full payload
	// never is.
	if err == nil && bytes.Equal(got, payload) {
		t.Fatal("reset mode delivered the full payload with a clean close")
	}
}

func TestFlipByteCorruptsExactlyOne(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Config{Mode: FlipByte, After: 7})
	got, err := mustFetch(t, p.Addr())
	if err != nil || len(got) != len(payload) {
		t.Fatalf("flip mode: got %d bytes (err %v), want %d", len(got), err, len(payload))
	}
	for i := range payload {
		want := payload[i]
		if i == 7 {
			want ^= 1
		}
		if got[i] != want {
			t.Fatalf("byte %d: got %#x, want %#x", i, got[i], want)
		}
	}
}

func TestDelayStallsFirstByte(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const delay = 150 * time.Millisecond
	p.Set(Config{Mode: Delay, Delay: delay})
	start := time.Now()
	got, err := mustFetch(t, p.Addr())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("delay mode: got %d bytes (err %v), want intact payload", len(got), err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("response arrived in %v, want >= %v", elapsed, delay)
	}
}

func TestRefuseDropsBeforeBytes(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Config{Mode: Refuse})
	got, _ := mustFetch(t, p.Addr())
	if len(got) != 0 {
		t.Fatalf("refuse mode forwarded %d bytes", len(got))
	}
}

// TestSetSwitchesNewConnections pins the runtime-switchable contract the
// chaos tests depend on: one proxy plays healthy, then dead, then healthy
// again without restarting.
func TestSetSwitchesNewConnections(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, step := range []struct {
		cfg  Config
		want int
	}{
		{Config{Mode: Pass}, len(payload)},
		{Config{Mode: Truncate, After: 5}, 5},
		{Config{Mode: Pass}, len(payload)},
	} {
		p.Set(step.cfg)
		got, err := mustFetch(t, p.Addr())
		if err != nil || len(got) != step.want {
			t.Fatalf("mode %v: got %d bytes (err %v), want %d", step.cfg.Mode, len(got), err, step.want)
		}
	}
}

func TestStallNeverAnswers(t *testing.T) {
	payload := testPayload()
	p, err := New(payloadServer(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Config{Mode: Stall})

	c, err := net.DialTimeout("tcp", p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer c.Close()
	// The connection accepts and reads the request...
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write request: %v", err)
	}
	// ...but not one response byte arrives inside the deadline.
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 1)
	if n, err := c.Read(buf); err == nil || n > 0 {
		t.Fatalf("stall mode delivered %d byte(s) (err %v), want a read timeout", n, err)
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("read error %v, want a timeout (connection must stay open, not closed)", err)
	}

	// CloseActive severs the pinned connection: the next read fails
	// immediately with a non-timeout error.
	p.CloseActive()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read after CloseActive succeeded, want the severed connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("read after CloseActive timed out (%v), want an immediate close", err)
	}
}
