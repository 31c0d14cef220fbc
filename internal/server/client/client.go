// Package client is a small typed client for the dpmd planning
// service (internal/server). Tests and the examples/service
// walkthrough use it; fleet nodes would embed something like it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dpm/internal/resilience"
	"dpm/internal/server"
)

// CacheState reports whether a response was served from the plan
// cache.
type CacheState string

const (
	// CacheHit means the response came from the cache.
	CacheHit CacheState = "hit"
	// CacheMiss means the response was computed for this request.
	CacheMiss CacheState = "miss"
	// CacheNone means the endpoint does not cache.
	CacheNone CacheState = ""
)

// Client talks to one dpmd instance.
type Client struct {
	base string
	http *http.Client

	// retrier and breakers are set by NewWithRetry; nil means every
	// request is a single attempt (the New behavior).
	retrier  *resilience.Retrier
	breakers *resilience.BreakerGroup
	host     string
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses a default with a
// 30 s timeout.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// apiError mirrors the server's structured error body.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// StatusError is a non-2xx response from the service.
type StatusError struct {
	// Code is the HTTP status.
	Code int
	// Message is the server's structured error text.
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent); the
	// retry loop uses it as the floor of its backoff sleep.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dpmd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// post sends a JSON request and decodes the JSON response into out,
// under the retry policy when one is configured (NewWithRetry). Extra
// headers (key/value pairs) are set on the request. Every dpmd
// endpoint is idempotent — planning is stateless compute and replan
// round-trips its checkpoint — so re-executing a request whose
// response was lost is always safe.
func (c *Client) post(ctx context.Context, path string, in, out any, headers ...[2]string) (CacheState, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return CacheNone, fmt.Errorf("client: encoding request: %w", err)
	}
	var state CacheState
	err = c.withRetry(ctx, func() error {
		st, err := c.postOnce(ctx, path, body, out, headers)
		state = st
		return err
	})
	return state, err
}

// postOnce is one request/response round trip.
func (c *Client) postOnce(ctx context.Context, path string, body []byte, out any, headers [][2]string) (CacheState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return CacheNone, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Declare the remaining budget so the server can shed the request
	// instead of queueing it past its deadline. Recomputed per attempt:
	// each retry has less budget than the last.
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.Header.Set(deadlineHeader, rem.String())
		}
	}
	for _, h := range headers {
		req.Header.Set(h[0], h[1])
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return CacheNone, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	state := CacheState(resp.Header.Get("X-Dpmd-Cache"))
	if resp.StatusCode != http.StatusOK {
		return state, decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return state, fmt.Errorf("client: decoding response: %w", err)
	}
	return state, nil
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var ae apiError
	if err := json.Unmarshal(data, &ae); err == nil && ae.Error != "" {
		se.Message = ae.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// Plan requests an Algorithm 1 power allocation.
func (c *Client) Plan(ctx context.Context, req server.PlanRequest) (*server.PlanResponse, CacheState, error) {
	var out server.PlanResponse
	state, err := c.post(ctx, "/v1/plan", req, &out)
	if err != nil {
		return nil, state, err
	}
	return &out, state, nil
}

// PlanTraced is Plan with the debug span tree attached: it sets
// "X-Dpmd-Trace: 1" and decodes the wrapped response. The embedded
// plan bytes are exactly what Plan would have returned — tracing never
// perturbs the cached payload — with the request's span tree and
// request id alongside.
func (c *Client) PlanTraced(ctx context.Context, req server.PlanRequest) (*server.TracedPlanResponse, CacheState, error) {
	var out server.TracedPlanResponse
	state, err := c.post(ctx, "/v1/plan", req, &out, [2]string{"X-Dpmd-Trace", "1"})
	if err != nil {
		return nil, state, err
	}
	return &out, state, nil
}

// BatchResult is one item of a PlanBatch call: exactly one of Plan
// and Err is set. Cache reports the item's plan-cache disposition.
type BatchResult struct {
	Plan  *server.PlanResponse
	Cache CacheState
	Err   error
}

// PlanBatch answers many plan requests in one round trip. The
// returned slice is in request order; a failed item carries a
// *StatusError in Err and does not disturb its siblings.
func (c *Client) PlanBatch(ctx context.Context, reqs []server.PlanRequest) ([]BatchResult, error) {
	var out server.BatchResponse
	if _, err := c.post(ctx, "/v1/batch", server.BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(reqs) {
		return nil, fmt.Errorf("client: %d batch results for %d requests", len(out.Results), len(reqs))
	}
	res := make([]BatchResult, len(out.Results))
	for i, item := range out.Results {
		if item.Status != http.StatusOK {
			msg := strings.TrimSpace(string(item.Body))
			var ae apiError
			if err := json.Unmarshal(item.Body, &ae); err == nil && ae.Error != "" {
				msg = ae.Error
			}
			res[i] = BatchResult{Err: &StatusError{Code: item.Status, Message: msg}}
			continue
		}
		var pr server.PlanResponse
		if err := json.Unmarshal(item.Body, &pr); err != nil {
			return nil, fmt.Errorf("client: decoding batch item %d: %w", i, err)
		}
		res[i] = BatchResult{Plan: &pr, Cache: CacheState(item.Cache)}
	}
	return res, nil
}

// Params requests an Algorithm 2 (n, f) schedule for a plan.
func (c *Client) Params(ctx context.Context, req server.ParamsRequest) (*server.ParamsResponse, CacheState, error) {
	var out server.ParamsResponse
	state, err := c.post(ctx, "/v1/params", req, &out)
	if err != nil {
		return nil, state, err
	}
	return &out, state, nil
}

// Replan applies the Algorithm 3 runtime update.
func (c *Client) Replan(ctx context.Context, req server.ReplanRequest) (*server.ReplanResponse, error) {
	var out server.ReplanResponse
	if _, err := c.post(ctx, "/v1/replan", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate runs a bounded closed-loop simulation.
func (c *Client) Simulate(ctx context.Context, req server.SimulateRequest) (*server.SimulateResponse, error) {
	var out server.SimulateResponse
	if _, err := c.post(ctx, "/v1/simulate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz checks liveness (retried under the client's policy when one
// is configured — a GET is trivially idempotent).
func (c *Client) Healthz(ctx context.Context) error {
	return c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			return &StatusError{Code: resp.StatusCode, Message: "health check failed"}
		}
		return nil
	})
}

// Metrics fetches the Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}
