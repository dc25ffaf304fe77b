package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// cannedBackend answers POST /v1/sweep with a fixed NDJSON body and every
// other request (health probes) with an empty JSON object, counting the
// sweeps it served: internal/serve's fakeStreamServer idiom, as a router
// backend.
type cannedBackend struct {
	mu     sync.Mutex
	body   string
	sweeps int
}

func (b *cannedBackend) set(body string) {
	b.mu.Lock()
	b.body = body
	b.mu.Unlock()
}

func (b *cannedBackend) served() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sweeps
}

func (b *cannedBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/sweep" {
		serve.WriteJSON(w, http.StatusOK, struct{}{})
		return
	}
	b.mu.Lock()
	b.sweeps++
	body := b.body
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprint(w, body)
}

// cannedFleet starts n canned backends behind a router and returns them
// in the default workload's walk order, so a test can script the primary,
// the first failover and so on.
func cannedFleet(t *testing.T, n int) (*Router, []*cannedBackend) {
	t.Helper()
	byAddr := map[string]*cannedBackend{}
	var addrs []string
	for i := 0; i < n; i++ {
		b := &cannedBackend{}
		ts := httptest.NewServer(b)
		t.Cleanup(ts.Close)
		byAddr[ts.URL] = b
		addrs = append(addrs, ts.URL)
	}
	rt, err := New(Options{
		Backends:      addrs,
		Replication:   1, // no prewarm fan-out to the canned backends
		ProbeInterval: time.Hour,
		Retry:         RetryPolicy{MaxAttempts: n, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	var order []*cannedBackend
	for _, addr := range rt.candidates(workload.Default) {
		order = append(order, byAddr[addr])
	}
	return rt, order
}

// points renders n canned point lines, p1..pn.
func points(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "{\"label\":\"p%d\"}\n", i)
	}
	return b.String()
}

func trailer(n int) string { return fmt.Sprintf("{\"done\":true,\"points\":%d}\n", n) }

// TestStreamAttemptTrailerGuards pins the two checks a resumed sweep
// stream makes on a backend's trailer: a trailer that counts more points
// than arrived, and a complete replay shorter than the prefix already
// delivered. Each ends the attempt as a retryable ErrTruncatedStream, and
// the walk moves on to a well-behaved replica, whose stream completes the
// client's: every point once, then exactly one trailer.
func TestStreamAttemptTrailerGuards(t *testing.T) {
	cases := []struct {
		name string
		// bodies scripts the walk's backends in order; the last is
		// well-behaved.
		bodies []string
		// bad is the backend whose attempt must fail its trailer check,
		// and sent the prefix already delivered when it runs.
		bad  int
		sent int
	}{
		{"trailer counts more points than arrived",
			[]string{points(2) + trailer(3), points(3) + trailer(3)}, 0, 0},
		{"replay shorter than the delivered prefix",
			[]string{points(3), points(2) + trailer(2), points(3) + trailer(3)}, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, backends := cannedFleet(t, len(tc.bodies))
			for i, b := range backends {
				b.set(tc.bodies[i])
			}

			// The guarded attempt on its own.
			addr := rt.candidates(workload.Default)[tc.bad]
			sent, headerWritten := tc.sent, tc.sent > 0
			rec := httptest.NewRecorder()
			err := rt.streamAttempt(context.Background(), addr, []byte(`{}`), reqMeta{}, &sent, &headerWritten, rec, nil)
			if !errors.Is(err, serve.ErrTruncatedStream) || !Retryable(err) {
				t.Fatalf("attempt error %v, want a retryable ErrTruncatedStream", err)
			}
			if strings.Contains(rec.Body.String(), `"done"`) {
				t.Errorf("failed attempt wrote a trailer:\n%s", rec.Body)
			}

			// The whole walk, through the router's handler.
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			resp, err := http.Post(front.URL+"/v1/sweep?stream=1", "application/json",
				strings.NewReader(`{"workload":"default","cells":[{"config":"1w1","regs":32}]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if want := points(3) + trailer(3); string(got) != want {
				t.Errorf("client stream:\n%s\nwant:\n%s", got, want)
			}
			for i, b := range backends {
				// The direct attempt above hit the bad backend once more.
				want := 1
				if i == tc.bad {
					want = 2
				}
				if b.served() != want {
					t.Errorf("backend %d served %d sweep(s), want %d", i, b.served(), want)
				}
			}
			if r := rt.retries.Load(); r != int64(len(tc.bodies)-1) {
				t.Errorf("retries = %d, want %d", r, len(tc.bodies)-1)
			}
		})
	}
}
