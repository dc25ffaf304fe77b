package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// ClientOptions tunes a Client's transport. The zero value gives the
// defaults documented per field; use NewClientHTTP to take over the
// http.Client entirely.
type ClientOptions struct {
	// RequestTimeout bounds one whole request — dial, headers and body,
	// streaming sweeps included (default 10m, enough for a cold full-
	// workbench experiment; negative disables the bound). A tighter
	// caller deadline on the context always wins.
	RequestTimeout time.Duration
	// Tenant names this client on every request (the X-Tenant header), so
	// the fleet router's admission control and the server's engine-budget
	// attribution can tell tenants apart. Empty = anonymous.
	Tenant string
}

const (
	// dialTimeout bounds establishing the TCP connection (and a TLS
	// handshake).
	dialTimeout           = 10 * time.Second
	defaultRequestTimeout = 10 * time.Minute
)

// Client is a typed Go client for the serve API, used by the tests and
// examples/servequery. The zero value is not usable; call NewClient.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	tenant  string
}

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8080")
// with sane default timeouts: a request cannot hang forever on a dead
// peer even when the caller passes context.Background().
func NewClient(base string) *Client {
	return NewClientOptions(base, ClientOptions{})
}

// NewClientOptions is NewClient with explicit timeout options.
func NewClientOptions(base string, opts ClientOptions) *Client {
	timeout := opts.RequestTimeout
	if timeout == 0 {
		timeout = defaultRequestTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	hc := &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: dialTimeout}).DialContext,
		TLSHandshakeTimeout: dialTimeout,
	}}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, timeout: timeout, tenant: opts.Tenant}
}

// NewClientHTTP is NewClient with a custom http.Client (timeouts,
// transports, test servers). The provided client is used as-is: no
// default request timeout is layered on top, exactly as before
// ClientOptions existed.
func NewClientHTTP(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// propagateDeadline marks a context whose caller set an explicit
// deadline, so do forwards it as an X-Deadline header. The client's own
// default RequestTimeout is deliberately not propagated: it is a local
// hang guard, not an end-to-end budget the server should act on.
type propagateDeadline struct{}

// reqCtx applies the client's request timeout. The caller's own deadline,
// when earlier, is preserved by context.WithTimeout semantics.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		ctx = context.WithValue(ctx, propagateDeadline{}, true)
	}
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}

// Health calls GET /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	return out, c.get(ctx, "/healthz", nil, &out)
}

// Workloads calls GET /v1/workloads.
func (c *Client) Workloads(ctx context.Context) (WorkloadsResponse, error) {
	var out WorkloadsResponse
	return out, c.get(ctx, "/v1/workloads", nil, &out)
}

// Import uploads a workload (POST /v1/workloads). Names colliding with a
// registered scenario are rejected by the server — see Manager.Import.
func (c *Client) Import(ctx context.Context, w *workload.Workload) (ImportResponse, error) {
	var out ImportResponse
	body, err := workload.Encode(w)
	if err != nil {
		return out, err
	}
	return out, c.post(ctx, "/v1/workloads", body, &out)
}

// EvalRequest selects one design cell for Eval.
type EvalRequest struct {
	// Workload is the scenario or imported workload ("" = default).
	Workload string
	// Config is the paper's XwY notation.
	Config string
	// Regs and Partitions size the register file (0 = the server defaults,
	// 64 and 1).
	Regs, Partitions int
	// Z forces a cycle model (0 = derive from the access time).
	Z int
}

// Eval calls GET /v1/eval.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (EvalResponse, error) {
	q := url.Values{}
	q.Set("config", req.Config)
	if req.Workload != "" {
		q.Set("workload", req.Workload)
	}
	if req.Regs != 0 {
		q.Set("regs", strconv.Itoa(req.Regs))
	}
	if req.Partitions != 0 {
		q.Set("partitions", strconv.Itoa(req.Partitions))
	}
	if req.Z != 0 {
		q.Set("z", strconv.Itoa(req.Z))
	}
	var out EvalResponse
	return out, c.get(ctx, "/v1/eval", q, &out)
}

// Sweep calls POST /v1/sweep (single-response form).
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error) {
	var out SweepResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	return out, c.post(ctx, "/v1/sweep", body, &out)
}

// SweepStream calls POST /v1/sweep?stream=1 and invokes fn for each
// point as it arrives, in submission order. A stream that ends without
// its trailer — or whose trailer counts more points than arrived — is an
// ErrTruncatedStream, never a short success (see ReadSweepStream).
func (c *Client) SweepStream(ctx context.Context, req SweepRequest, fn func(Point) error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.do(ctx, http.MethodPost, "/v1/sweep?stream=1", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = ReadSweepStream(resp.Body, func(line []byte) error {
		var p Point
		if err := json.Unmarshal(line, &p); err != nil {
			// Valid JSON that is not a Point: corruption in flight, like
			// the undecodable lines ReadSweepStream rejects.
			return fmt.Errorf("serve: %w: undecodable point: %v", ErrTruncatedStream, err)
		}
		return fn(p)
	})
	return err
}

// ExperimentResponse is the experiment envelope (the artifact's canonical
// export shape): id, title, and the full typed result as raw JSON.
type ExperimentResponse struct {
	ID    string          `json:"id"`
	Title string          `json:"title"`
	Data  json.RawMessage `json:"data"`
}

// Experiment calls GET /v1/experiments/{id}.
func (c *Client) Experiment(ctx context.Context, id, workloadName string) (ExperimentResponse, error) {
	q := url.Values{}
	if workloadName != "" {
		q.Set("workload", workloadName)
	}
	var out ExperimentResponse
	return out, c.get(ctx, "/v1/experiments/"+url.PathEscape(id), q, &out)
}

// Stats calls GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	return out, c.get(ctx, "/v1/stats", nil, &out)
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return decodeBody(resp, out)
}

func (c *Client) post(ctx context.Context, path string, body []byte, out any) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	return decodeBody(resp, out)
}

// do issues the request and turns non-2xx responses into errors carrying
// the server's message. The caller owns resp.Body on success.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	if on, _ := ctx.Value(propagateDeadline{}).(bool); on {
		if d, ok := ctx.Deadline(); ok {
			SetDeadlineHeader(req.Header, d)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var e Error
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("serve: %s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, nil
}

func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decode response: %w", err)
	}
	return nil
}
