package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

// RetryPolicy bounds the router's retries. A retry moves to a replica
// this request has not tried yet at once; capped exponential backoff
// with full jitter applies only before retrying a member it already
// tried. The zero value means the defaults documented per field.
type RetryPolicy struct {
	// MaxAttempts is the total tries per request, first included
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before retry 1 (default 25ms); it doubles
	// per retry up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// backoff returns the sleep before retry n (1-based): the capped
// exponential delay with full jitter, so a burst of failures against one
// backend does not retry in lockstep.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d/2 + rand.N(d/2+1)
}

// sleep waits out the backoff before retry n, or returns early when the
// request context dies.
func (p RetryPolicy) sleep(ctx context.Context, n int) error {
	t := time.NewTimer(p.backoff(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryBudget is the router-wide token bucket that bounds retry
// amplification: every admitted request funds it by ratio tokens, every
// retry spends one. When a chunk of the fleet degrades,
// first attempts keep flowing but the extra attempts that would multiply
// the load dry up at ~ratio of traffic. The bucket starts full so a
// cold router can still retry its very first failures.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
}

// retryBudgetCap bounds the banked tokens: bursts of quiet traffic must
// not save up an unbounded retry storm.
const retryBudgetCap = 10

// newRetryBudget builds the bucket; ratio 0 means the default 0.1, and a
// negative ratio disables budgeting (nil — every spend succeeds).
func newRetryBudget(ratio float64) *retryBudget {
	if ratio < 0 {
		return nil
	}
	if ratio == 0 {
		ratio = 0.1
	}
	return &retryBudget{tokens: retryBudgetCap, ratio: ratio}
}

// fund credits one incoming request's worth of budget.
func (b *retryBudget) fund() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+b.ratio, retryBudgetCap)
	b.mu.Unlock()
}

// spend takes one token for a retry; false means the budget is exhausted
// and the extra attempt must not be sent.
func (b *retryBudget) spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// StatusError is a backend response the router treats as a transport
// failure (a gateway-style 502/503/504, e.g. from a proxy in front of
// the backend); anything else — 400s, 404s, the backend's own 500s — is
// the backend's deterministic answer and is forwarded, never retried.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("backend returned HTTP %d: %s", e.Code, e.Body)
}

// errClientGone marks a failure writing to OUR client: retrying against
// another backend cannot help, the requester hung up.
var errClientGone = errors.New("fleet: client connection gone")

// errNoBackend is walk's answer when no candidate for the key is in
// rotation at all: the structured 503, not a failed retry.
var errNoBackend = errors.New("fleet: no backend in rotation")

// walk is the retry walk every proxied request takes, buffered or
// streamed. try makes attempt n against addr; walk owns everything
// around it:
//   - the candidates: key's in-rotation members in ring order,
//     refreshed before every retry and skipping members this request
//     already tried, so a drain mid-request moves on to the warm standby
//     instead of shifting the walk past it;
//   - retry-budget spend and the retries / retry_budget_exhausted
//     counters;
//   - backoff, only before retrying a member already tried — moving to
//     an untried replica is immediate;
//   - the deadline check before each attempt;
//   - feeding each outcome to the member's state machine and booking
//     the served-by counters.
//
// It returns the member that served, or the error that ended the walk:
// errNoBackend, context.DeadlineExceeded when the deadline passed
// before an attempt, else the last attempt's error.
func (rt *Router) walk(ctx context.Context, key string, m reqMeta, try func(addr string, n int) error) (string, error) {
	pol := rt.opts.Retry
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return "", errNoBackend
	}
	addr := cands[0]
	var tried []string // members this request already tried; each failed
	var lastErr error
	for n := 0; n < pol.MaxAttempts; n++ {
		if n > 0 {
			if !rt.budget.spend() {
				rt.retryExhausted.Add(1)
				rt.logf("fleet: retry budget exhausted for %q (last error: %v)", key, lastErr)
				break
			}
			rt.retries.Add(1)
			if cands = rt.candidates(key); len(cands) == 0 {
				break
			}
			if addr = firstUntried(cands, tried); addr == "" {
				addr = cands[n%len(cands)]
				if pol.sleep(ctx, n) != nil {
					break
				}
			}
		}
		if m.expired() {
			return "", context.DeadlineExceeded
		}
		err := try(addr, n)
		if err == nil {
			rt.noteSuccess(addr)
			rt.classifyServed(key, addr)
			return addr, nil
		}
		rt.noteFailure(addr, err)
		lastErr = err
		if !Retryable(err) {
			break
		}
		tried = append(tried, addr)
	}
	return "", lastErr
}

// firstUntried returns the first of cands not in tried, or "".
func firstUntried(cands, tried []string) string {
	for _, c := range cands {
		if !slices.Contains(tried, c) {
			return c
		}
	}
	return ""
}

// Retryable classifies an error as safe and useful to retry against
// another replica. Only idempotent failures qualify: transport errors
// (the request may never have executed, and every fleet request is a
// pure function of its inputs anyway), truncated sweep streams (the
// delivered prefix is a deterministic prefix of any retry), and
// gateway-style status codes. A deterministic backend answer or a dead
// client is terminal.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, errClientGone) || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, serve.ErrTruncatedStream) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusBadGateway || se.Code == http.StatusServiceUnavailable || se.Code == http.StatusGatewayTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	// http.Client wraps transport errors in *url.Error, which implements
	// net.Error and is caught above; any remaining unknown error is
	// presumed transport-level (a connection reset mid-body can surface
	// as a plain error string through io.ReadAll).
	return true
}
