package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"riscvmem/internal/cluster/protocol"
)

// Client is the HTTP binding of the worker-facing coordinator API: the
// exact protocol messages, POSTed as JSON to a coordinator's
// /cluster/v1/* endpoints. It implements API, so a Worker configured with
// a Client instead of a Coordinator behaves identically — the oracle test
// runs the whole cluster through httptest to pin that.
type Client struct {
	base string
	hc   *http.Client
}

// clientIdleConns is how many idle connections a Client keeps to its
// coordinator. A worker has a long poll, a heartbeat and a row return per
// executing assignment open at once; http.DefaultTransport idles only 2
// connections per host, so the others were closed after each call and
// re-dialed for the next one.
const clientIdleConns = 64

// NewClient builds a client for the coordinator at baseURL (scheme +
// host[:port], e.g. "http://127.0.0.1:8080"). The underlying http.Client
// carries no global timeout: the poll call is a long poll by design, and
// every call is bounded by its ctx. It has its own transport, a copy of
// http.DefaultTransport whose idle pool holds clientIdleConns connections.
func NewClient(baseURL string) *Client {
	tr := &http.Transport{}
	if def, ok := http.DefaultTransport.(*http.Transport); ok {
		tr = def.Clone()
	}
	tr.MaxIdleConns = clientIdleConns
	tr.MaxIdleConnsPerHost = clientIdleConns
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{Transport: tr}}
}

// post round-trips one protocol message: JSON in, JSON out, non-2xx
// statuses surfaced as errors carrying the server's {"error": ...} text.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err != nil {
		return fmt.Errorf("cluster: reading %s response: %w", path, err)
	}
	if len(data) > maxReplyBytes {
		return fmt.Errorf("cluster: %s response exceeds %d bytes", path, maxReplyBytes)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("cluster: %s: HTTP %d: %s", path, resp.StatusCode, e.Error)
		}
		return fmt.Errorf("cluster: %s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decoding %s response: %w", path, err)
	}
	return nil
}

func (c *Client) Register(ctx context.Context, req protocol.RegisterRequest) (protocol.RegisterResponse, error) {
	var resp protocol.RegisterResponse
	err := c.post(ctx, "/cluster/v1/register", req, &resp)
	return resp, err
}

func (c *Client) Heartbeat(ctx context.Context, req protocol.HeartbeatRequest) (protocol.HeartbeatResponse, error) {
	var resp protocol.HeartbeatResponse
	err := c.post(ctx, "/cluster/v1/heartbeat", req, &resp)
	return resp, err
}

func (c *Client) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	var resp protocol.PollResponse
	err := c.post(ctx, "/cluster/v1/poll", req, &resp)
	return resp, err
}

func (c *Client) ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error) {
	var resp protocol.RowAck
	err := c.post(ctx, "/cluster/v1/rows", req, &resp)
	return resp, err
}

func (c *Client) DrainWorker(ctx context.Context, req protocol.DrainRequest) (protocol.DrainResponse, error) {
	var resp protocol.DrainResponse
	err := c.post(ctx, "/cluster/v1/drain", req, &resp)
	return resp, err
}
