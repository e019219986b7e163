package served

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
)

// Client talks to an ipra-served daemon.
//
// Addresses take three forms:
//
//	unix:/path/to.sock   Unix socket (the daemon default)
//	host:port            TCP
//	http://host:port     TCP, explicit scheme
type Client struct {
	// Retries is how many times Build re-submits after a queue-full 503,
	// honoring the server's Retry-After hint up to retryCap; 0 means fail
	// fast.
	Retries int

	baseURL string
	http    *http.Client
}

// Dial returns a client for addr. No connection is opened until the
// first request.
func Dial(addr string) (*Client, error) {
	c := &Client{http: &http.Client{}}
	switch {
	case strings.HasPrefix(addr, "unix:"):
		path := strings.TrimPrefix(addr, "unix:")
		if path == "" {
			return nil, fmt.Errorf("served: empty unix socket path in %q", addr)
		}
		c.baseURL = "http://ipra-served"
		c.http.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
	case strings.HasPrefix(addr, "http://"), strings.HasPrefix(addr, "https://"):
		c.baseURL = strings.TrimSuffix(addr, "/")
	case addr == "":
		return nil, fmt.Errorf("served: empty daemon address")
	default:
		c.baseURL = "http://" + addr
	}
	return c, nil
}

// StatusError is a non-200 daemon reply.
type StatusError struct {
	Code          int
	Message       string
	Reason        string
	RetryAfterSec int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("served: daemon replied %d: %s", e.Code, e.Message)
}

// Saturated reports whether the error is a queue-full rejection — the
// only 503 worth retrying. A draining daemon also answers 503, but it
// will never accept this request again; treating every 503 as saturation
// made clients sit out their whole retry budget against a daemon that
// was already gone.
func (e *StatusError) Saturated() bool {
	return e.Code == http.StatusServiceUnavailable && e.Reason != ReasonDraining
}

// Draining reports whether the daemon rejected the request because it is
// shutting down.
func (e *StatusError) Draining() bool {
	return e.Code == http.StatusServiceUnavailable && e.Reason == ReasonDraining
}

// roundTrip sends one request, with body as its wire-encoded payload when
// it is not nil, and returns the 200 reply's body, read into one buffer
// sized from its Content-Length. Any other status comes back as a
// *StatusError.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var payload io.Reader
	if body != nil {
		payload = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, payload)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeStatusError(resp)
	}
	return readBody(resp.Body, resp.ContentLength)
}

func decodeStatusError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	se := &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var er errorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		se.Message = er.Error
		se.Reason = er.Reason
		se.RetryAfterSec = er.RetryAfterSec
	}
	if se.RetryAfterSec == 0 {
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			se.RetryAfterSec = sec
		}
	}
	return se
}

// retryCap bounds one Retry-After wait of Build.
const retryCap = 5 * time.Second

// Build submits one build request, retrying queue-full rejections up to
// c.Retries times with the server's Retry-After backoff.
func (c *Client) Build(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
	body := req.encode()
	for attempt := 0; ; attempt++ {
		data, err := c.roundTrip(ctx, http.MethodPost, "/v1/build", body)
		if err == nil {
			return decodeBuildResponse(data)
		}
		se, ok := err.(*StatusError)
		if !ok || !se.Saturated() || attempt >= c.Retries {
			return nil, err
		}
		wait := time.Duration(se.RetryAfterSec) * time.Second
		if wait <= 0 {
			wait = 250 * time.Millisecond
		}
		wait = min(wait, retryCap)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// IngestProfile posts one wire-encoded profile snapshot (a fleet
// generation's profagg.Aggregate) to the daemon and returns its drift
// verdict.
func (c *Client) IngestProfile(ctx context.Context, snapshot []byte) (*ProfileIngestResponse, error) {
	data, err := c.roundTrip(ctx, http.MethodPost, "/v1/profile", snapshot)
	if err != nil {
		return nil, err
	}
	var out ProfileIngestResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ProfileSnapshot fetches the program's wire-encoded aggregate snapshot
// (profagg.DecodeAggregate parses it), enabling a byte-identical local
// reproduction of the daemon's aggregated build.
func (c *Client) ProfileSnapshot(ctx context.Context, program string) ([]byte, error) {
	return c.roundTrip(ctx, http.MethodGet, "/v1/profile/snapshot?program="+url.QueryEscape(program), nil)
}

// Stats fetches the daemon's counter and gauge snapshot.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	data, err := c.roundTrip(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var out ServerStats
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health reports whether the daemon is accepting work.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.roundTrip(ctx, http.MethodGet, "/v1/health", nil)
	return err
}

// WaitReady polls Health until the daemon answers or the deadline
// passes — the startup handshake of scripted clients (CI, loadgen). The
// wait is bounded by whichever comes first: timeout, or a deadline or
// cancellation already carried by ctx (deriving the poll deadline from
// the context means a caller's tighter budget is never overshot).
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var last error
	for {
		if last = c.Health(ctx); last == nil {
			return nil
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("served: daemon not ready after %v: %w", timeout, last)
		}
	}
}
