package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/errs"
	"repro/internal/scenario"
)

// Client talks to a toposcenariod server. The zero value is not usable;
// call NewClient.
type Client struct {
	base string
	hc   *http.Client
	// PollInterval spaces Wait's status polls (default 100ms).
	PollInterval time.Duration
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil hc uses http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// SubmitSpec submits a raw spec document — exactly the bytes the CLI
// would run locally — and returns the accepted job's status.
func (c *Client) SubmitSpec(ctx context.Context, spec []byte) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit marshals scenarios and submits them as one job.
func (c *Client) Submit(ctx context.Context, scs []scenario.Scenario) (*JobStatus, error) {
	body, err := json.Marshal(scs)
	if err != nil {
		return nil, err
	}
	return c.SubmitSpec(ctx, body)
}

// Job fetches one job's status, results included.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel asks the server to cancel a job and returns its status. A
// queued job cancels immediately; a running one cancels through the
// engine's context, so poll (or Wait) for the terminal state.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state and returns that
// final status. On context expiry it returns the last status seen (nil
// if none was fetched yet) alongside the ErrCanceled-wrapping error.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	var last *JobStatus
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			if cerr := errs.Ctx(ctx); cerr != nil {
				return last, fmt.Errorf("service: waiting for %s: %w", id, cerr)
			}
			return last, err
		}
		last = st
		if Terminal(st.State) {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return last, fmt.Errorf("service: waiting for %s: %w", id, errs.Ctx(ctx))
		}
	}
}

// Statusz fetches the monitoring snapshot.
func (c *Client) Statusz(ctx context.Context) (*Statusz, error) {
	var st Statusz
	if err := c.do(ctx, http.MethodGet, "/v1/statusz", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// do issues one request and decodes the JSON response into out. Non-2xx
// responses surface the server's error body; a 400 wraps
// errs.ErrBadParam so remote validation failures classify exactly like
// local ones.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		if resp.StatusCode == http.StatusBadRequest {
			return fmt.Errorf("service: %s: %w", msg, errs.ErrBadParam)
		}
		return fmt.Errorf("service: %s %s: HTTP %d: %s", method, path, resp.StatusCode, msg)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
