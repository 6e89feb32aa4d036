package remote

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
)

// This file is the peer tier of the fleet-wide result cache. Every sweepd —
// coordinator or worker — serves its store's local tiers read-only under
// GET /results/{key} (ResultsHandler), and a store configured with peers
// consults them through PeerSource before simulating a cold point. The
// handler answers from memory and disk only, never from its own peers, so a
// lookup fans out one hop and cannot cascade around the fleet.

// maxPeerResultBytes bounds one peer response body. A result is a few
// kilobytes, but a peer running an older binary still embeds the program in
// each result (11.6 MB for one streamcluster point), and its answers stay
// welcome.
const maxPeerResultBytes = 1 << 28

// ResultsHandler serves GET /results/{key}: the store's cached result for
// the key as JSON, or 404 when the local tiers miss. Mount it on a mux route
// like "GET /results/{key}".
func ResultsHandler(st *runner.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key, err := url.PathUnescape(r.PathValue("key"))
		if err != nil || key == "" {
			writeError(w, http.StatusBadRequest, errBadKey)
			return
		}
		res, ok := st.Get(key)
		if !ok {
			writeError(w, http.StatusNotFound, errNoResult)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	})
}

var (
	errBadKey   = &staticError{"bad result key"}
	errNoResult = &staticError{"no cached result for key"}
)

type staticError struct{ msg string }

func (e *staticError) Error() string { return e.msg }

// PeerSource implements runner.PeerFetcher over a set of sweepd base URLs.
// Peers are tried in order and the first hit wins; every failure — refused
// connection, timeout, non-200, unparsable body — is just a miss on that
// peer, so a dead peer costs one round-trip's latency, never correctness.
type PeerSource struct {
	// URLs are the peers' base URLs, e.g. "http://sweepd-2:8080".
	URLs []string
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
	// Timeout bounds each per-peer attempt (0 means DefaultPeerTimeout). A
	// peer lookup is a read of an already-computed result, so it should be
	// fast or abandoned — the fallback is simulating the point locally.
	Timeout time.Duration
	// Metrics, when non-nil, counts and times peer fetches.
	Metrics *PeerMetrics
}

// DefaultPeerTimeout bounds one peer's GET /results/{key} round-trip.
const DefaultPeerTimeout = 10 * time.Second

// NewPeerSource returns a peer source over the given base URLs, skipping
// blanks. It returns nil when no URLs remain, so the result plugs directly
// into StoreOptions.Peers (a typed nil interface would defeat the store's
// nil check).
func NewPeerSource(urls []string) runner.PeerFetcher {
	var clean []string
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, strings.TrimRight(u, "/"))
		}
	}
	if len(clean) == 0 {
		return nil
	}
	return &PeerSource{URLs: clean}
}

func (p *PeerSource) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

func (p *PeerSource) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return DefaultPeerTimeout
}

// FetchResult asks each peer in turn for the key and returns the first hit.
// The caller's context bounds the whole sweep; each attempt additionally
// gets its own timeout so one hung peer cannot eat the others' turns.
func (p *PeerSource) FetchResult(ctx context.Context, key string) (*core.Result, bool) {
	for _, peer := range p.URLs {
		if ctx.Err() != nil {
			return nil, false
		}
		if res, ok := p.fetchOne(ctx, peer, key); ok {
			return res, true
		}
	}
	return nil, false
}

// fetchOne tries one peer, classifying the outcome for metrics: "hit" (200
// with a well-formed result), "miss" (404 — the peer simply doesn't have
// it), or "error" (anything else).
func (p *PeerSource) fetchOne(ctx context.Context, peer, key string) (*core.Result, bool) {
	start := time.Now()
	res, outcome := p.get(ctx, peer, key)
	if p.Metrics != nil {
		p.Metrics.Fetches.With(peer, outcome).Inc()
		p.Metrics.FetchSeconds.Observe(time.Since(start).Seconds())
	}
	return res, outcome == "hit"
}

func (p *PeerSource) get(ctx context.Context, peer, key string) (*core.Result, string) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer+"/v1/results/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, "error"
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, "error"
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var res core.Result
		dec := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxPeerResultBytes))
		if err := dec.Decode(&res); err != nil || !res.Complete() {
			// A truncated or foreign body must not be cached as the point's
			// result; treat it like a channel failure.
			return nil, "error"
		}
		return &res, "hit"
	case http.StatusNotFound:
		return nil, "miss"
	default:
		return nil, "error"
	}
}

// PeerMetrics instruments peer fetches made by a PeerSource.
type PeerMetrics struct {
	// Fetches counts per-peer attempts by outcome: "hit", "miss" (peer
	// answered 404), "error" (transport failure or malformed response).
	Fetches *obs.CounterVec
	// FetchSeconds times individual peer attempts, any outcome.
	FetchSeconds *obs.Histogram
}

// NewPeerMetrics registers the peer-fetch metric family on the registry.
func NewPeerMetrics(reg *obs.Registry) *PeerMetrics {
	return &PeerMetrics{
		Fetches:      reg.CounterVec("store_peer_fetches_total", "Peer result fetches by peer URL and outcome (hit, miss, error).", "peer", "outcome"),
		FetchSeconds: reg.Histogram("store_peer_fetch_seconds", "Per-peer GET /results/{key} round-trip latency.", obs.LatencyBuckets),
	}
}
