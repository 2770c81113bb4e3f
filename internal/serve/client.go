package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dylect/internal/retry"
	"dylect/internal/telemetry"
)

// Client is the retrying client for the service. Retryable rejections
// (429/503 with a stable code) are retried with jittered exponential
// backoff; a server-advertised Retry-After overrides the computed backoff.
// Permanent errors (400) fail immediately. Safe for concurrent use.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8344".
	Base string
	// HTTP is the transport; nil uses a default client with no global
	// timeout (per-call ctx bounds each attempt).
	HTTP *http.Client
	// MaxAttempts bounds tries per call; <=0 defaults to 6.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (doubling per attempt,
	// full jitter); MaxBackoff caps it. Defaults: 200ms / 10s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// sleep is retry.Sleep, injectable so tests run without real delays.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter *retry.Jitter
}

// NewClient builds a client with the jitter source seeded from seed, so
// tests reproduce their backoff schedules.
func NewClient(base string, seed int64) *Client {
	return &Client{Base: base, jitter: retry.NewJitter(seed), sleep: retry.Sleep}
}

// APIError is a non-200 service response surfaced to the caller.
type APIError struct {
	Status     int
	Code       string
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Status, e.Code, e.Msg)
}

// Retryable reports whether the rejection is worth retrying.
func (e *APIError) Retryable() bool {
	switch e.Code {
	case CodeQueueFull, CodeClientLimit, CodeBreakerOpen, CodeOverloaded, CodeShed:
		return true
	}
	// Codeless 5xx (proxy in the path, draining race) is retryable too.
	return e.Code == "" && e.Status >= 500
}

// Run executes a RunRequest with retries. ctx bounds the whole call
// including backoff waits.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 6
	}
	// One ID per logical call, reused across retries: the server's log then
	// shows every attempt of a retried request under the same ID.
	id := telemetry.NewID()
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, last)); err != nil {
				return nil, err
			}
		}
		resp, err := c.do(ctx, body, id)
		if err == nil {
			return resp, nil
		}
		last = err
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Retryable() {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("serve: giving up after %d attempts: %w", attempts, last)
}

// do performs one attempt.
func (c *Client) do(ctx context.Context, body []byte, id string) (*RunResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(telemetry.HeaderRequestID, id)
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: hresp.StatusCode}
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil {
			apiErr.Code = er.Code
			apiErr.Msg = er.Error
		}
		apiErr.RetryAfter = retry.Advice(hresp.Header.Get("Retry-After"), er.RetryAfterSec)
		return nil, apiErr
	}
	var out RunResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("serve: decode response: %w", err)
	}
	out.RequestID = hresp.Header.Get(telemetry.HeaderRequestID)
	// The wire carries Results compacted; restore the canonical export
	// indentation so served bytes are identical to a direct ExportJSONFor.
	// Indenting only moves whitespace between tokens, so this is lossless.
	if len(out.Results) > 0 {
		var buf bytes.Buffer
		if err := json.Indent(&buf, out.Results, "", "  "); err != nil {
			return nil, fmt.Errorf("serve: reformat results: %w", err)
		}
		out.Results = json.RawMessage(buf.Bytes())
	}
	return &out, nil
}

// backoff computes the wait before the given (1-based) retry attempt: the
// server's Retry-After when advertised, else full-jitter exponential backoff
// (retry.Jitter.Delay), both capped at MaxBackoff.
func (c *Client) backoff(attempt int, last error) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	var advice time.Duration
	var apiErr *APIError
	if errors.As(last, &apiErr) {
		advice = apiErr.RetryAfter
	}
	return c.jitter.Delay(base, c.MaxBackoff, attempt, advice)
}
