package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Multi-tenant dispatch: every submitted sweep belongs to a tenant, and when
// tenants contend for execution capacity the dispatcher shares it in
// proportion to their configured weights instead of first-come-first-served.
// Each executing point holds a grant; grants are handed out by a stride
// scheduler (the tenant with the smallest accumulated pass value goes next,
// advancing by 1/weight per grant), which is deterministic — ties break by
// tenant name — and drains backlogs weight-proportionally: a weight-2 tenant
// receives two grants for every one a weight-1 tenant gets, regardless of
// queue lengths or submission order.
//
// Quotas are enforced at admission (POST /sweeps): a tenant over its
// MaxQueuedSweeps or MaxActivePoints budget gets 429 with a machine-readable
// body (see quotaError). Lowering a tenant's quotas below its current load
// (PUT /tenants/{id}) preempts the tenant's newest sweeps — cancelled through
// the same per-sweep cancel plumbing as POST /sweeps/{id}/cancel, so their
// in-flight points stop at the next task boundary — and never touches any
// other tenant's sweeps.

// DefaultTenant owns submissions that name no tenant. It always exists, with
// weight 1 and no quotas, until reconfigured.
const DefaultTenant = "default"

// maxTenantName bounds tenant identifiers (they become metric label values
// and log fields).
const maxTenantName = 64

// TenantConfig is a tenant's dispatch weight and admission quotas, the body
// of PUT /tenants/{id}.
type TenantConfig struct {
	// Weight is the tenant's share of execution capacity under contention
	// (grants are dealt proportionally to weights). 0 means 1.
	Weight int `json:"weight,omitempty"`
	// MaxActivePoints caps the tenant's unsettled points across all its
	// running sweeps; a submission that would exceed it gets 429. 0 means
	// unlimited.
	MaxActivePoints int `json:"max_active_points,omitempty"`
	// MaxQueuedSweeps caps the tenant's concurrently admitted (running)
	// sweeps; a submission beyond it gets 429. 0 means unlimited.
	MaxQueuedSweeps int `json:"max_queued_sweeps,omitempty"`
}

func (c TenantConfig) weight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return float64(c.Weight)
}

// validate rejects configs the scheduler or admission check cannot honor.
func (c TenantConfig) validate() error {
	if c.Weight < 0 {
		return fmt.Errorf("weight %d must be >= 0 (0 means 1)", c.Weight)
	}
	if c.MaxActivePoints < 0 || c.MaxQueuedSweeps < 0 {
		return errors.New("quotas must be >= 0 (0 means unlimited)")
	}
	return nil
}

// TenantInfo is the listing entry served by GET /tenants.
type TenantInfo struct {
	Name string `json:"name"`
	TenantConfig
	// Active is the tenant's outstanding execution grants (points running
	// right now); Queued is its grants waiting for capacity.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// RunningSweeps counts the tenant's admitted, unfinished sweeps.
	RunningSweeps int `json:"running_sweeps"`
	// ActivePoints counts unsettled points across those sweeps (the number
	// MaxActivePoints admission-checks against).
	ActivePoints int `json:"active_points"`
}

// quotaError is a 429 admission rejection. Its HTTP body is documented on
// handleSubmit:
//
//	{"error": "...", "tenant": "acme", "quota": "max_active_points", "limit": 500}
//
// Quota names "max_active_points" and "max_queued_sweeps" mirror the
// TenantConfig fields.
type quotaError struct {
	Tenant string
	Quota  string
	Limit  int
	msg    string
}

func (e *quotaError) Error() string { return e.msg }

// tenantMetrics instruments the dispatcher; nil on a dispatcher skips
// instrumentation (unit tests drive bare dispatchers).
type tenantMetrics struct {
	queued      *obs.GaugeVec   // tenant: grants waiting for capacity
	active      *obs.GaugeVec   // tenant: grants outstanding
	grants      *obs.CounterVec // tenant
	rejected    *obs.CounterVec // tenant, quota
	preemptions *obs.CounterVec // tenant
}

func newTenantMetrics(reg *obs.Registry) *tenantMetrics {
	return &tenantMetrics{
		queued:      reg.GaugeVec("service_tenant_queue_depth", "Execution grants waiting for capacity, by tenant.", "tenant"),
		active:      reg.GaugeVec("service_tenant_active_points", "Execution grants outstanding (points running), by tenant.", "tenant"),
		grants:      reg.CounterVec("service_tenant_grants_total", "Execution grants issued, by tenant.", "tenant"),
		rejected:    reg.CounterVec("service_tenant_rejected_total", "Submissions rejected 429 by tenant and quota (max_active_points, max_queued_sweeps).", "tenant", "quota"),
		preemptions: reg.CounterVec("service_tenant_preemptions_total", "Sweeps preempted because their tenant's quotas were lowered below its load.", "tenant"),
	}
}

// grant is one unit of execution capacity. ch closes when the grant is
// issued; the holder must release() it when the point settles.
type grant struct {
	tenant string
	ch     chan struct{}
	// granted flips under the dispatcher lock when the grant is issued, so
	// abandon can tell a queued grant (remove it) from a just-issued one
	// (release it).
	granted bool
}

// tenantState is the dispatcher's per-tenant bookkeeping.
type tenantState struct {
	cfg    TenantConfig
	pass   float64 // stride scheduler virtual time; next grant goes to min pass
	queue  []*grant
	active int
}

// dispatcher deals execution grants across tenants, weighted-fair. Capacity
// is the total number of outstanding grants allowed: the local worker's
// slots plus every registered worker's slots, so the dispatcher decides
// *whose* points run whenever the execution layer is saturated, and never
// itself becomes the bottleneck.
type dispatcher struct {
	mu       sync.Mutex
	capacity int
	free     int
	tenants  map[string]*tenantState
	met      *tenantMetrics
}

func newDispatcher(capacity int) *dispatcher {
	d := &dispatcher{
		capacity: capacity,
		free:     capacity,
		tenants:  make(map[string]*tenantState),
	}
	d.tenants[DefaultTenant] = &tenantState{}
	return d
}

// configure creates or updates a tenant. Weight changes apply from the next
// grant; pass values carry over so a reconfiguration cannot be used to jump
// the queue.
func (d *dispatcher) configure(name string, cfg TenantConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.tenants[name]
	if !ok {
		st = &tenantState{}
		d.tenants[name] = st
	}
	st.cfg = cfg
	d.schedule()
}

// config returns the tenant's config (zero value — weight 1, no quotas — for
// tenants never configured).
func (d *dispatcher) config(name string) TenantConfig {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.tenants[name]; ok {
		return st.cfg
	}
	return TenantConfig{}
}

// names returns the known tenants, sorted.
func (d *dispatcher) names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// counts returns a tenant's outstanding and queued grants.
func (d *dispatcher) counts(name string) (active, queued int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.tenants[name]; ok {
		return st.active, len(st.queue)
	}
	return 0, 0
}

// setCapacity resizes the grant pool (the fleet grew or shrank). Shrinking
// below the outstanding grant count drives free negative; releases restore
// it before anything new is granted.
func (d *dispatcher) setCapacity(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.free += n - d.capacity
	d.capacity = n
	d.schedule()
}

// enqueue appends a grant request for a tenant and schedules. The grant may
// already be issued on return (ch closed); otherwise it waits its turn.
// Tenants submit through enqueue without prior configuration — an unknown
// name joins with the default config.
func (d *dispatcher) enqueue(tenant string) *grant {
	g := &grant{tenant: tenant, ch: make(chan struct{})}
	d.mu.Lock()
	st, ok := d.tenants[tenant]
	if !ok {
		st = &tenantState{}
		d.tenants[tenant] = st
	}
	if len(st.queue) == 0 && st.active == 0 {
		// A tenant returning from idle starts at the busy tenants' virtual
		// time instead of the stale pass it left off at, so idleness does not
		// accumulate into a burst of back-to-back grants.
		st.pass = maxFloat(st.pass, d.minBusyPass())
	}
	st.queue = append(st.queue, g)
	if d.met != nil {
		d.met.queued.With(tenant).Set(float64(len(st.queue)))
	}
	d.schedule()
	d.mu.Unlock()
	return g
}

// await blocks until the queued grant g is issued or the caller's ctx dies.
// It returns false — with the grant safely withdrawn or released — if ctx
// dies first.
func (d *dispatcher) await(ctx context.Context, g *grant) bool {
	select {
	case <-g.ch:
		return true
	case <-ctx.Done():
		d.abandon(g)
		return false
	}
}

// release returns a grant's capacity to the pool.
func (d *dispatcher) release(g *grant) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.tenants[g.tenant]
	st.active--
	d.free++
	if d.met != nil {
		d.met.active.With(g.tenant).Set(float64(st.active))
	}
	d.schedule()
}

// abandon withdraws a grant whose waiter gave up. If the grant raced its
// issuance, it is released instead, so capacity never leaks.
func (d *dispatcher) abandon(g *grant) {
	d.mu.Lock()
	if g.granted {
		d.mu.Unlock()
		d.release(g)
		return
	}
	st := d.tenants[g.tenant]
	for i, q := range st.queue {
		if q == g {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			break
		}
	}
	if d.met != nil {
		d.met.queued.With(g.tenant).Set(float64(len(st.queue)))
	}
	d.mu.Unlock()
}

// schedule issues grants while capacity is free: each round goes to the
// queued tenant with the smallest pass value (ties to the lexicographically
// smallest name — fully deterministic), whose pass then advances by
// 1/weight. Callers hold d.mu.
func (d *dispatcher) schedule() {
	for d.free > 0 {
		var bestName string
		var best *tenantState
		for name, st := range d.tenants {
			if len(st.queue) == 0 {
				continue
			}
			if best == nil || st.pass < best.pass || (st.pass == best.pass && name < bestName) {
				best, bestName = st, name
			}
		}
		if best == nil {
			return
		}
		g := best.queue[0]
		best.queue = best.queue[1:]
		g.granted = true
		close(g.ch)
		best.active++
		best.pass += 1 / best.cfg.weight()
		d.free--
		if d.met != nil {
			d.met.queued.With(bestName).Set(float64(len(best.queue)))
			d.met.active.With(bestName).Set(float64(best.active))
			d.met.grants.With(bestName).Inc()
		}
	}
}

// minBusyPass is the virtual time of the busiest-waiting tenants; callers
// hold d.mu.
func (d *dispatcher) minBusyPass() float64 {
	min, any := 0.0, false
	for _, st := range d.tenants {
		if len(st.queue) == 0 && st.active == 0 {
			continue
		}
		if !any || st.pass < min {
			min, any = st.pass, true
		}
	}
	return min
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- Server integration -------------------------------------------------

// normalizeTenant maps a submission's tenant field to its canonical name:
// blank means DefaultTenant; anything else must be a short, label-safe
// identifier.
func normalizeTenant(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return DefaultTenant, nil
	}
	if len(name) > maxTenantName {
		return "", fmt.Errorf("tenant name exceeds %d characters", maxTenantName)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return "", fmt.Errorf("tenant name %q may only contain letters, digits, '-', '_' and '.'", name)
		}
	}
	return name, nil
}

// ConfigureTenant creates or updates a tenant, then enforces the (possibly
// lowered) quotas against the tenant's current load by preempting its newest
// running sweeps until it fits. It returns the IDs of the sweeps preempted.
// Other tenants' sweeps are never candidates.
func (s *Server) ConfigureTenant(name string, cfg TenantConfig) ([]string, error) {
	name, err := normalizeTenant(name)
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		return nil, coded(CodeInvalidTenant, err)
	}
	s.disp.configure(name, cfg)
	preempted := s.preemptOverQuota(name, cfg)
	for _, id := range preempted {
		s.met.tenant.preemptions.With(name).Inc()
		s.log().Warn("sweep preempted: tenant over lowered quota",
			"tenant", name, "sweep", id)
	}
	return preempted, nil
}

// preemptOverQuota cancels the tenant's newest running sweeps until the
// tenant fits its quotas, returning their IDs (oldest first). Cancellation
// uses each sweep's own cancel scope, so only that sweep's points stop.
func (s *Server) preemptOverQuota(name string, cfg TenantConfig) []string {
	if cfg.MaxQueuedSweeps == 0 && cfg.MaxActivePoints == 0 {
		return nil
	}
	type loaded struct {
		sw     *sweep
		points int
	}
	s.mu.Lock()
	var running []loaded // submission order
	points := 0
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.tenant != name {
			continue
		}
		st := sw.status()
		if st.State != StateRunning {
			continue
		}
		p := st.Total - st.Completed - st.Failed - st.Cancelled
		running = append(running, loaded{sw, p})
		points += p
	}
	s.mu.Unlock()

	var victims []*sweep
	for len(running) > 0 {
		over := (cfg.MaxQueuedSweeps > 0 && len(running) > cfg.MaxQueuedSweeps) ||
			(cfg.MaxActivePoints > 0 && points > cfg.MaxActivePoints)
		if !over {
			break
		}
		last := running[len(running)-1]
		running = running[:len(running)-1]
		points -= last.points
		victims = append(victims, last.sw)
	}
	ids := make([]string, 0, len(victims))
	for i := len(victims) - 1; i >= 0; i-- { // oldest first in the response
		sw := victims[i]
		sw.cancel(fmt.Errorf("sweep %s preempted: tenant %q over quota after reconfiguration", sw.id, name))
		ids = append(ids, sw.id)
	}
	return ids
}

// Tenants lists every known tenant with its config and live load, sorted by
// name.
func (s *Server) Tenants() []TenantInfo {
	names := s.disp.names()
	out := make([]TenantInfo, 0, len(names))
	for _, name := range names {
		out = append(out, s.tenantInfo(name))
	}
	return out
}

func (s *Server) tenantInfo(name string) TenantInfo {
	active, queued := s.disp.counts(name)
	s.mu.Lock()
	sweeps, points := s.tenantLoadLocked(name)
	s.mu.Unlock()
	return TenantInfo{
		Name:          name,
		TenantConfig:  s.disp.config(name),
		Active:        active,
		Queued:        queued,
		RunningSweeps: sweeps,
		ActivePoints:  points,
	}
}

// tenantLoadLocked counts the tenant's running sweeps and their unsettled
// points; callers hold s.mu.
func (s *Server) tenantLoadLocked(name string) (sweeps, points int) {
	for _, sw := range s.sweeps {
		if sw.tenant != name {
			continue
		}
		st := sw.status()
		if st.State != StateRunning {
			continue
		}
		sweeps++
		points += st.Total - st.Completed - st.Failed - st.Cancelled
	}
	return sweeps, points
}

// admitLocked checks the tenant's quotas against its current load plus the
// new submission; callers hold s.mu. cfg is the caller's snapshot (taken
// before s.mu, preserving lock order: the dispatcher lock is never held
// together with the server lock).
func (s *Server) admitLocked(tenant string, cfg TenantConfig, newPoints int) error {
	sweeps, points := s.tenantLoadLocked(tenant)
	if cfg.MaxQueuedSweeps > 0 && sweeps >= cfg.MaxQueuedSweeps {
		return &quotaError{
			Tenant: tenant, Quota: "max_queued_sweeps", Limit: cfg.MaxQueuedSweeps,
			msg: fmt.Sprintf("tenant %q already has %d running sweeps (quota %d)", tenant, sweeps, cfg.MaxQueuedSweeps),
		}
	}
	if cfg.MaxActivePoints > 0 && points+newPoints > cfg.MaxActivePoints {
		return &quotaError{
			Tenant: tenant, Quota: "max_active_points", Limit: cfg.MaxActivePoints,
			msg: fmt.Sprintf("tenant %q has %d active points; %d more would exceed quota %d", tenant, points, newPoints, cfg.MaxActivePoints),
		}
	}
	return nil
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Tenants())
}

// handleConfigureTenant serves PUT /tenants/{id}: install the body's
// TenantConfig, preempting the tenant's newest sweeps if the new quotas are
// below its current load. The response is the tenant's resulting info plus
// the preempted sweep IDs.
func (s *Server) handleConfigureTenant(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var cfg TenantConfig
	if err := decodeStrict(r.Body, &cfg); err != nil {
		s.httpError(w, r, http.StatusBadRequest, coded(CodeInvalidBody, fmt.Errorf("decode tenant config: %w", err)))
		return
	}
	preempted, err := s.ConfigureTenant(r.PathValue("id"), cfg)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	name, _ := normalizeTenant(r.PathValue("id"))
	s.log().Info("tenant configured",
		"req", requestID(r.Context()), "tenant", name,
		"weight", cfg.Weight, "max_active_points", cfg.MaxActivePoints,
		"max_queued_sweeps", cfg.MaxQueuedSweeps, "preempted", len(preempted))
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, struct {
		TenantInfo
		Preempted []string `json:"preempted,omitempty"`
	}{s.tenantInfo(name), preempted})
}
