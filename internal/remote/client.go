package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/service"
)

// Client submits whole sweeps to a sweepd daemon (coordinator or
// single-node) instead of simulating in-process — the transport behind
// `sweep -remote <url>`. Its Sweep is the twin of service.Server.Sweep.
type Client struct {
	// URL is the daemon's base URL.
	URL string
	// HTTPClient is the HTTP client; nil uses http.DefaultClient. Sweeps
	// run for as long as their slowest point, so no overall timeout is
	// applied — cancel via the context.
	HTTPClient *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Sweep submits the grid with ?stream=1 and collects every streamed point
// until the daemon terminates the stream. Submitting synchronously ties the
// sweep to this call: cancelling ctx (or the process dying) disconnects the
// stream, and the daemon cancels the sweep's in-flight points.
func (c *Client) Sweep(ctx context.Context, req service.SubmitRequest) ([]service.Point, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.URL, "/")+"/v1/sweeps?stream=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("remote: submit to %s: %w", c.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote: %s rejected the sweep: status %d: %s",
			c.URL, resp.StatusCode, readError(resp.Body))
	}
	var points []service.Point
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var p service.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return points, fmt.Errorf("remote: unparsable stream line %q: %w", sc.Text(), err)
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		return points, fmt.Errorf("remote: stream from %s: %w", c.URL, err)
	}
	return points, nil
}
