package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
// The dispatcher is the one owner of tenant state: besides the grant queues
// it keeps each tenant's running sweeps, and checks every submission
// (POST /sweeps) against them. A tenant over its MaxQueuedSweeps or
// MaxActivePoints budget gets 429 with a machine-readable body (see
// quotaError). Lowering a tenant's quotas below its current load
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
	// Active is the tenant's execution grants outstanding; Queued is its
	// grants waiting for capacity.
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
	grants      *obs.CounterVec // tenant: points launched on a grant (runPoints)
	rejected    *obs.CounterVec // tenant, quota
	preemptions *obs.CounterVec // tenant
}

func newTenantMetrics(reg *obs.Registry) *tenantMetrics {
	return &tenantMetrics{
		queued:      reg.GaugeVec("service_tenant_queue_depth", "Execution grants waiting for capacity, by tenant.", "tenant"),
		active:      reg.GaugeVec("service_tenant_active_points", "Execution grants outstanding, by tenant.", "tenant"),
		grants:      reg.CounterVec("service_tenant_grants_total", "Execution grants used to launch a point, by tenant.", "tenant"),
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
	// running is the tenant's ledger: its admitted, unfinished sweeps in
	// submission order.
	running []*sweep
}

// load sums the unsettled points of the tenant's running sweeps; callers
// hold d.mu.
func (st *tenantState) load() int {
	n := 0
	for _, sw := range st.running {
		n += sw.unsettled()
	}
	return n
}

// info is the tenant's listing entry; callers hold d.mu.
func (st *tenantState) info(name string) TenantInfo {
	return TenantInfo{
		Name:          name,
		TenantConfig:  st.cfg,
		Active:        st.active,
		Queued:        len(st.queue),
		RunningSweeps: len(st.running),
		ActivePoints:  st.load(),
	}
}

// dispatcher deals execution grants across tenants, weighted-fair, and keeps
// each tenant's ledger of running sweeps. Capacity is the total number of
// outstanding grants allowed: the local worker's slots plus every registered
// worker's slots, so the dispatcher decides *whose* points run whenever the
// execution layer is saturated, and never itself becomes the bottleneck.
type dispatcher struct {
	// mu guards the dispatcher and every tenant's state. The lock order is
	// s.mu → d.mu → sw.mu: Server.submit admits a sweep under the server
	// lock, and the ledger reads each running sweep's load under mu. Nothing
	// takes these locks in any other order.
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

// tenant returns the named tenant's state; an unknown name joins with the
// default config (weight 1, no quotas). Callers hold d.mu.
func (d *dispatcher) tenant(name string) *tenantState {
	st, ok := d.tenants[name]
	if !ok {
		st = &tenantState{}
		d.tenants[name] = st
	}
	return st
}

// configure creates or updates a tenant and returns the running sweeps that
// no longer fit its quotas, oldest first: its newest sweeps, taken one at a
// time until the rest fit. Weight changes apply from the next grant; pass
// values carry over so a reconfiguration cannot be used to jump the queue.
func (d *dispatcher) configure(name string, cfg TenantConfig) []*sweep {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.tenant(name)
	st.cfg = cfg
	d.schedule()
	// Dropping the newest sweeps until the rest fit keeps the longest
	// prefix of the ledger that fits.
	keep, points := 0, 0
	for _, sw := range st.running {
		points += sw.unsettled()
		if (cfg.MaxQueuedSweeps > 0 && keep == cfg.MaxQueuedSweeps) ||
			(cfg.MaxActivePoints > 0 && points > cfg.MaxActivePoints) {
			break
		}
		keep++
	}
	return slices.Clone(st.running[keep:])
}

// admit checks a new sweep against its tenant's quotas (points is what the
// sweep will settle) and enters it in the tenant's ledger if it fits.
func (d *dispatcher) admit(sw *sweep, points int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.tenant(sw.tenant)
	cfg := st.cfg
	if n := len(st.running); cfg.MaxQueuedSweeps > 0 && n >= cfg.MaxQueuedSweeps {
		return &quotaError{
			Tenant: sw.tenant, Quota: "max_queued_sweeps", Limit: cfg.MaxQueuedSweeps,
			msg: fmt.Sprintf("tenant %q already has %d running sweeps (quota %d)", sw.tenant, n, cfg.MaxQueuedSweeps),
		}
	}
	if cfg.MaxActivePoints > 0 {
		if load := st.load(); load+points > cfg.MaxActivePoints {
			return &quotaError{
				Tenant: sw.tenant, Quota: "max_active_points", Limit: cfg.MaxActivePoints,
				msg: fmt.Sprintf("tenant %q has %d active points; %d more would exceed quota %d", sw.tenant, load, points, cfg.MaxActivePoints),
			}
		}
	}
	st.running = append(st.running, sw)
	return nil
}

// leave removes a finishing sweep from its tenant's ledger.
func (d *dispatcher) leave(sw *sweep) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.tenants[sw.tenant]
	st.running = slices.DeleteFunc(st.running, func(r *sweep) bool { return r == sw })
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
func (d *dispatcher) enqueue(tenant string) *grant {
	g := &grant{tenant: tenant, ch: make(chan struct{})}
	d.mu.Lock()
	st := d.tenant(tenant)
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
// running sweeps until it fits. It returns the IDs of the sweeps preempted,
// oldest first. Cancellation uses each sweep's own cancel scope, so only
// that sweep's points stop; other tenants' sweeps are never candidates.
func (s *Server) ConfigureTenant(name string, cfg TenantConfig) ([]string, error) {
	name, err := normalizeTenant(name)
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		return nil, coded(CodeInvalidTenant, err)
	}
	var preempted []string
	for _, sw := range s.disp.configure(name, cfg) {
		sw.cancel(fmt.Errorf("sweep %s preempted: tenant %q over quota after reconfiguration", sw.id, name))
		preempted = append(preempted, sw.id)
		s.met.tenant.preemptions.With(name).Inc()
		s.log().Warn("sweep preempted: tenant over lowered quota",
			"tenant", name, "sweep", sw.id)
	}
	return preempted, nil
}

// Tenants lists every known tenant — configured, or with an admitted sweep —
// with its config and live load, sorted by name.
func (s *Server) Tenants() []TenantInfo {
	d := s.disp
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TenantInfo, 0, len(d.tenants))
	for name, st := range d.tenants {
		out = append(out, st.info(name))
	}
	slices.SortFunc(out, func(a, b TenantInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
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
	s.disp.mu.Lock()
	info := s.disp.tenants[name].info(name)
	s.disp.mu.Unlock()
	s.log().Info("tenant configured",
		"req", requestID(r.Context()), "tenant", name,
		"weight", cfg.Weight, "max_active_points", cfg.MaxActivePoints,
		"max_queued_sweeps", cfg.MaxQueuedSweeps, "preempted", len(preempted))
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, struct {
		TenantInfo
		Preempted []string `json:"preempted,omitempty"`
	}{info, preempted})
}
