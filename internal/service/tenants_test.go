package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
)

// drainOrder issues every queued grant one at a time (capacity 1) and
// records the tenant order the dispatcher chose. Deterministic: the
// dispatcher breaks ties by name and nothing here is concurrent.
func drainOrder(t *testing.T, d *dispatcher, grants []*grant) []string {
	t.Helper()
	d.setCapacity(1)
	var order []string
	recorded := make(map[*grant]bool)
	for len(order) < len(grants) {
		progressed := false
		for _, g := range grants {
			if g.granted && !recorded[g] {
				recorded[g] = true
				order = append(order, g.tenant)
				d.release(g)
				progressed = true
				break
			}
		}
		if !progressed {
			t.Fatalf("dispatcher stalled after %d of %d grants (%v)", len(order), len(grants), order)
		}
	}
	return order
}

// TestDispatcherFairness: backlogged tenants drain in proportion to their
// weights, deterministically, regardless of enqueue order. (Weights are
// powers of two so stride arithmetic is exact.)
func TestDispatcherFairness(t *testing.T) {
	cases := []struct {
		name    string
		weights map[string]int
		enqueue []string // tenant per request, enqueued before any grant
		want    []string // exact grant order
	}{
		{
			name:    "equal-weights-alternate",
			weights: map[string]int{"a": 1, "b": 1},
			enqueue: []string{"a", "a", "a", "b", "b", "b"},
			want:    []string{"a", "b", "a", "b", "a", "b"},
		},
		{
			name:    "two-to-one",
			weights: map[string]int{"a": 2, "b": 1},
			enqueue: []string{"a", "a", "a", "a", "a", "a", "b", "b", "b", "b", "b", "b"},
			want:    []string{"a", "b", "a", "a", "b", "a", "a", "b", "a", "b", "b", "b"},
		},
		{
			name:    "four-to-one",
			weights: map[string]int{"a": 4, "b": 1},
			enqueue: []string{"a", "a", "a", "a", "a", "a", "a", "a", "b", "b"},
			want:    []string{"a", "b", "a", "a", "a", "a", "b", "a", "a", "a"},
		},
		{
			name:    "single-tenant-fifo",
			weights: map[string]int{"a": 3},
			enqueue: []string{"a", "a", "a"},
			want:    []string{"a", "a", "a"},
		},
		{
			name:    "enqueue-order-irrelevant",
			weights: map[string]int{"a": 1, "b": 1},
			enqueue: []string{"b", "b", "b", "a", "a", "a"},
			want:    []string{"a", "b", "a", "b", "a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDispatcher(0)
			for name, w := range tc.weights {
				d.configure(name, TenantConfig{Weight: w})
			}
			grants := make([]*grant, 0, len(tc.enqueue))
			for _, tenant := range tc.enqueue {
				grants = append(grants, d.enqueue(tenant))
			}
			got := drainOrder(t, d, grants)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("grant order\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestDispatcherIdleCatchUp: a tenant joining mid-drain starts at the busy
// tenants' virtual time, so idleness earns no priority — the late joiner
// cannot leapfrog work the busy tenant already queued.
func TestDispatcherIdleCatchUp(t *testing.T) {
	d := newDispatcher(0)
	d.configure("a", TenantConfig{Weight: 1})
	d.configure("b", TenantConfig{Weight: 1})
	aGrants := []*grant{d.enqueue("a"), d.enqueue("a"), d.enqueue("a"), d.enqueue("a")}
	d.setCapacity(1)
	// Drain two of a's grants; a's pass advances well beyond zero.
	for i := 0; i < 2; i++ {
		if !aGrants[i].granted {
			t.Fatalf("grant %d not issued", i)
		}
		d.release(aGrants[i])
	}
	// b arrives late with two requests. Without pass catch-up b would sit at
	// virtual time 0 and its grants would jump ahead of a's queued work
	// ([a b b a]); with catch-up b starts level with a and the tie breaks
	// deterministically by name.
	all := append(aGrants[2:], d.enqueue("b"), d.enqueue("b"))
	var order []string
	recorded := make(map[*grant]bool)
	for len(order) < len(all) {
		progressed := false
		for _, g := range all {
			if g.granted && !recorded[g] {
				recorded[g] = true
				order = append(order, g.tenant)
				d.release(g)
				progressed = true
				break
			}
		}
		if !progressed {
			t.Fatalf("dispatcher stalled at %v", order)
		}
	}
	want := []string{"a", "a", "b", "b"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("late-joiner order %v, want %v", order, want)
	}
}

// TestDispatcherAbandon: withdrawing queued grants (or racing an issued one)
// never leaks capacity.
func TestDispatcherAbandon(t *testing.T) {
	d := newDispatcher(1)
	g1 := d.enqueue("a") // issued immediately
	g2 := d.enqueue("a") // queued
	if !g1.granted || g2.granted {
		t.Fatal("unexpected initial grant state")
	}
	d.abandon(g2) // withdraw while queued
	d.abandon(g1) // abandon after issuance: must release
	g3 := d.enqueue("a")
	if !g3.granted {
		t.Error("capacity leaked: grant not issued after abandons")
	}
	d.release(g3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hold := d.enqueue("a")
	if d.await(ctx, d.enqueue("a")) {
		t.Error("await succeeded under a dead context with no capacity")
	}
	if queued := queuedGrants(d, "a"); queued != 0 {
		t.Errorf("%d grants still queued after await gave up", queued)
	}
	_ = hold
}

// gateExec is a runner.Executor that blocks every point until release closes
// (or the point's context dies), so tests can hold sweeps in the running
// state deterministically.
type gateExec struct {
	res     *core.Result
	release chan struct{}
}

func (g *gateExec) Execute(ctx context.Context, _ runner.Job) (*core.Result, error) {
	select {
	case <-g.release:
		return g.res, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// gatedServer returns a service whose points block on the returned gate.
func gatedServer(t *testing.T) (*Server, *gateExec, string) {
	t.Helper()
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	res, err := (&runner.Engine{Base: base}).Run(runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateExec{res: res, release: make(chan struct{})}
	srv, ts := testServer(t, nil)
	srv.local.exec = gate
	return srv, gate, ts.URL
}

// submitTenant posts a one-point grid for a tenant; bench varies the key so
// submissions do not collapse in the store.
func submitTenant(t *testing.T, url, tenant, bench string) *http.Response {
	t.Helper()
	return postJSON(t, url+"/v1/sweeps",
		`{"benchmarks": ["`+bench+`"], "runtimes": ["software"], "tenant": "`+tenant+`"}`)
}

// quotaBody is the documented 429 response schema.
type quotaBody struct {
	Error  string `json:"error"`
	Tenant string `json:"tenant"`
	Quota  string `json:"quota"`
	Limit  int    `json:"limit"`
}

// TestTenantQuotaMaxQueuedSweeps: the sweep-count quota admits up to the
// limit, 429s beyond it with the documented body, never throttles other
// tenants, and frees up as sweeps finish.
func TestTenantQuotaMaxQueuedSweeps(t *testing.T) {
	srv, gate, url := gatedServer(t)
	if _, err := srv.ConfigureTenant("acme", TenantConfig{MaxQueuedSweeps: 1}); err != nil {
		t.Fatal(err)
	}

	resp := submitTenant(t, url, "acme", "histogram")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission status = %d", resp.StatusCode)
	}
	first := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()

	resp = submitTenant(t, url, "acme", "cholesky")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission status = %d, want 429", resp.StatusCode)
	}
	body := decode[quotaBody](t, resp.Body)
	resp.Body.Close()
	if body.Tenant != "acme" || body.Quota != "max_queued_sweeps" || body.Limit != 1 || body.Error == "" {
		t.Errorf("429 body = %+v", body)
	}

	// Another tenant is untouched by acme's quota.
	resp = submitTenant(t, url, "other", "cholesky")
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant throttled by acme's quota: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Quota is load, not history: once the sweep finishes, acme submits again.
	close(gate.release)
	waitState(t, url+"/v1/sweeps/"+first.ID)
	resp = submitTenant(t, url, "acme", "cholesky")
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-completion submission status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantQuotaMaxActivePoints: the point quota counts unsettled points
// across the tenant's running sweeps plus the new grid.
func TestTenantQuotaMaxActivePoints(t *testing.T) {
	srv, gate, url := gatedServer(t)
	defer close(gate.release)
	if _, err := srv.ConfigureTenant("bulk", TenantConfig{MaxActivePoints: 4}); err != nil {
		t.Fatal(err)
	}

	// A single grid bigger than the budget is rejected outright.
	resp := postJSON(t, url+"/v1/sweeps",
		`{"benchmarks": ["histogram"], "runtimes": ["software"], "cores": [8, 16, 32, 64, 128], "tenant": "bulk"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized grid status = %d, want 429", resp.StatusCode)
	}
	body := decode[quotaBody](t, resp.Body)
	resp.Body.Close()
	if body.Quota != "max_active_points" || body.Limit != 4 {
		t.Errorf("429 body = %+v", body)
	}

	// 3 points fit; 3 more would make 6 > 4.
	resp = postJSON(t, url+"/v1/sweeps",
		`{"benchmarks": ["histogram"], "runtimes": ["software"], "cores": [8, 16, 32], "tenant": "bulk"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("within-quota grid status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, url+"/v1/sweeps",
		`{"benchmarks": ["cholesky"], "runtimes": ["software"], "cores": [8, 16, 32], "tenant": "bulk"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second grid status = %d, want 429 (3 active + 3 new > 4)", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantPreemption: lowering a tenant's quota below its load cancels its
// newest sweeps — and only its own — through the regular cancel plumbing.
func TestTenantPreemption(t *testing.T) {
	srv, gate, url := gatedServer(t)
	defer close(gate.release)

	submit := func(tenant, bench string) string {
		resp := submitTenant(t, url, tenant, bench)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit(%s) status = %d", tenant, resp.StatusCode)
		}
		sub := decode[SubmitResponse](t, resp.Body)
		resp.Body.Close()
		return sub.ID
	}
	alphaOld := submit("alpha", "histogram")
	alphaNew := submit("alpha", "cholesky")
	beta := submit("beta", "histogram")

	preempted, err := srv.ConfigureTenant("alpha", TenantConfig{MaxQueuedSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(preempted) != 1 || preempted[0] != alphaNew {
		t.Fatalf("preempted = %v, want [%s] (newest alpha sweep)", preempted, alphaNew)
	}
	st := waitState(t, url+"/v1/sweeps/"+alphaNew)
	if st.State != StateCancelled {
		t.Errorf("preempted sweep state = %s, want cancelled", st.State)
	}
	// The survivor and the other tenant keep running (points still gated).
	for _, id := range []string{alphaOld, beta} {
		resp, err := http.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		got := decode[Status](t, resp.Body)
		resp.Body.Close()
		if got.State != StateRunning {
			t.Errorf("sweep %s state = %s, want running (not preempted)", id, got.State)
		}
	}
}

// TestTenantConcurrentAdmission: submissions racing for a tenant's last
// sweep slots cannot jointly slip past its quota: the ledger admits exactly
// MaxQueuedSweeps of them and rejects the rest with the quota envelope.
func TestTenantConcurrentAdmission(t *testing.T) {
	srv, gate, url := gatedServer(t)
	defer close(gate.release)
	if _, err := srv.ConfigureTenant("acme", TenantConfig{MaxQueuedSweeps: 3}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	codes := make([]int, n)
	bodies := make([]quotaBody, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"benchmarks": ["histogram"], "runtimes": ["software"], "cores": [%d], "tenant": "acme"}`, 8*(i+1))
			resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				if err := json.NewDecoder(resp.Body).Decode(&bodies[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	accepted := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			if b := bodies[i]; b.Tenant != "acme" || b.Quota != "max_queued_sweeps" || b.Limit != 3 || b.Error == "" {
				t.Errorf("429 body = %+v", b)
			}
		default:
			t.Errorf("submission %d status = %d, want 202 or 429", i, code)
		}
	}
	if accepted != 3 {
		t.Errorf("%d of %d racing submissions admitted, want the quota's 3 (statuses %v)", accepted, n, codes)
	}
	running := -1
	for _, ti := range srv.Tenants() {
		if ti.Name == "acme" {
			running = ti.RunningSweeps
		}
	}
	if running != 3 {
		t.Errorf("acme running sweeps = %d, want 3", running)
	}
}

// TestTenantKnownFromAdmission: a tenant nobody configured is listed from
// its first admitted sweep, even one whose only point was resident and so
// never asked for a grant.
func TestTenantKnownFromAdmission(t *testing.T) {
	srv, gate, _ := gatedServer(t)
	j := runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	if err := srv.engine.Store.Put(srv.engine.Key(j), gate.res); err != nil {
		t.Fatal(err)
	}
	sw, err := srv.submit([]runner.Job{j}, "newcomer", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	if st := sw.status(); st.State != StateDone || st.Completed != 1 {
		t.Fatalf("resident sweep = %+v, want its one point completed", st)
	}
	var names []string
	for _, ti := range srv.Tenants() {
		names = append(names, ti.Name)
	}
	if strings.Join(names, " ") != "default newcomer" {
		t.Errorf("tenant listing = %v, want [default newcomer]", names)
	}
}

// TestCancelWithdrawsGrantQueuedAhead: a launch loop that launched a point
// with points left holds its sweep's next grant request; cancelled while it
// settles the resident points behind, the loop may return from its pull
// with that request still queued or issued. Whichever path it takes, once
// the sweep finishes every grant is back and the tenant has none queued or
// outstanding.
func TestCancelWithdrawsGrantQueuedAhead(t *testing.T) {
	srv, gate, _ := gatedServer(t)
	defer close(gate.release)
	resident := make([]runner.Job, 200)
	for i := range resident {
		resident[i] = runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO, Cores: 8 * (i + 1)}
		if err := srv.engine.Store.Put(srv.engine.Key(resident[i]), gate.res); err != nil {
			t.Fatal(err)
		}
	}
	d := srv.disp
	for round := range 200 {
		// A fresh miss each round: it blocks at the gate until cancelled.
		miss := runner.Job{Benchmark: "cholesky", Runtime: taskrt.Software, Scheduler: sched.FIFO, Cores: 8 * (round + 1)}
		sw, err := srv.submit(append([]runner.Job{miss}, resident...), "acme", nil)
		if err != nil {
			t.Fatal(err)
		}
		sw.cancel(errors.New("cancelled by the test"))
		waitSweepDone(t, sw)
		d.mu.Lock()
		free, capacity := d.free, d.capacity
		active, queued := d.tenants["acme"].active, len(d.tenants["acme"].queue)
		d.mu.Unlock()
		if free != capacity || active != 0 || queued != 0 {
			t.Fatalf("round %d: %d of %d grants free, acme has %d active and %d queued after its cancelled sweep finished",
				round, free, capacity, active, queued)
		}
	}
}

// TestTenantEndpoints: GET /tenants lists configs and load; PUT validates.
func TestTenantEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/acme",
		strings.NewReader(`{"weight": 2, "max_active_points": 100}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("configure status = %d", resp.StatusCode)
	}
	info := decode[TenantInfo](t, resp.Body)
	resp.Body.Close()
	if info.Name != "acme" || info.Weight != 2 || info.MaxActivePoints != 100 {
		t.Errorf("configured tenant = %+v", info)
	}

	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]TenantInfo](t, resp.Body)
	resp.Body.Close()
	names := make([]string, len(list))
	for i, ti := range list {
		names[i] = ti.Name
	}
	if strings.Join(names, " ") != "acme default" {
		t.Errorf("tenant listing = %v, want [acme default]", names)
	}

	for _, bad := range []string{
		`{"weight": -1}`,
		`{"max_active_points": -5}`,
		`{"unknown_field": 1}`,
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/acme", strings.NewReader(bad))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("configure(%s) status = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Invalid tenant names are rejected at submission too.
	resp = postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks": ["histogram"], "tenant": "no spaces!"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant name status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantWeightedDrainEndToEnd: two tenants contending for one execution
// slot drain weight-proportionally through the real submission path.
func TestTenantWeightedDrainEndToEnd(t *testing.T) {
	rig := holdSlot(t, runner.NewStore())
	rig.drainWeighted(t)
}

// TestTenantResidentPointsTakeNoGrant: a sweep whose points are all
// resident in the store's memory tier settles in the launch loop while the
// only execution slot is held, and takes no tenant grant, so grants count
// executions. Its tenant's misses that follow still drain 2:1 by weight.
func TestTenantResidentPointsTakeNoGrant(t *testing.T) {
	base := core.DefaultConfig(taskrt.Software)
	st := runner.NewStore()
	resident := make([]runner.Job, 4)
	for i := range resident {
		resident[i] = runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.LIFO, Cores: 8 * (i + 1), Label: "heavy"}
	}
	if _, err := (&runner.Engine{Base: base, Store: st}).RunAll(resident); err != nil {
		t.Fatal(err)
	}
	rig := holdSlot(t, st)
	grants := rig.srv.met.tenant.grants.With("heavy")
	before := grants.Value()
	if before != 1 {
		t.Fatalf("service_tenant_grants_total{tenant=\"heavy\"} = %v with the slot held, want the holder's 1", before)
	}
	sw, err := rig.srv.submit(resident, "heavy", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw) // the slot is still held
	if st := sw.status(); st.State != StateDone || st.Completed != len(resident) {
		t.Fatalf("resident sweep = %+v, want %d points completed", st, len(resident))
	}
	if after := grants.Value(); after != before {
		t.Errorf("service_tenant_grants_total{tenant=\"heavy\"} moved %v -> %v for resident points", before, after)
	}
	rig.drainWeighted(t)
}

// slotRig is a one-slot server whose tenants heavy (weight 2) and light
// (weight 1) contend for its slot, with the slot held by a heavy point.
type slotRig struct {
	srv     *Server
	holder  *sweep
	unblock chan struct{}
	// mu guards order, the tenant of each execution in execution order.
	mu    chan struct{}
	order []string
}

// holdSlot starts a one-slot server over st whose executions note their
// tenant, and occupies the slot with a heavy point that runs until
// drainWeighted releases it. The holder uses a benchmark of its own, so
// its store key collides with nobody.
func holdSlot(t *testing.T, st *runner.Store) *slotRig {
	t.Helper()
	base := core.DefaultConfig(taskrt.Software)
	rig := &slotRig{srv: New(&runner.Engine{Base: base, Store: st}, 1), unblock: make(chan struct{}), mu: make(chan struct{}, 1)}
	for name, weight := range map[string]int{"heavy": 2, "light": 1} {
		if _, err := rig.srv.ConfigureTenant(name, TenantConfig{Weight: weight}); err != nil {
			t.Fatal(err)
		}
	}
	rig.mu <- struct{}{}
	hold := make(chan struct{})
	rig.srv.local.exec = &recordExec{
		base: base,
		note: func(tenant string) {
			<-rig.mu
			rig.order = append(rig.order, tenant)
			rig.mu <- struct{}{}
		},
		gate: func() { close(hold); <-rig.unblock },
	}
	var err error
	if rig.holder, err = rig.srv.submit(grid(t, "fluidanimate", 1), "heavy", nil); err != nil {
		t.Fatal(err)
	}
	<-hold
	return rig
}

// drainWeighted queues heavy's and light's misses behind the held slot,
// releases it once both tenants wait for a grant, and checks that the
// dispatcher, which decides every later launch, drained them 2:1 in stride
// order.
func (rig *slotRig) drainWeighted(t *testing.T) {
	t.Helper()
	srv := rig.srv
	subs := []*sweep{rig.holder}
	for _, g := range [][]runner.Job{grid(t, "histogram", 6), grid(t, "cholesky", 3)} {
		sw, err := srv.submit(g, g[0].Label, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sw)
	}
	// Give both launch loops time to enqueue their first grant requests.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if queuedGrants(srv.disp, "heavy") > 0 && queuedGrants(srv.disp, "light") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("grant queues never built up")
		}
		time.Sleep(time.Millisecond)
	}
	close(rig.unblock)
	for _, sw := range subs {
		waitSweepDone(t, sw)
	}

	<-rig.mu
	order := rig.order
	counts := map[string]int{}
	// The first execution is the pre-contention holder; count the rest.
	for _, tenant := range order[1:] {
		counts[tenant]++
	}
	if counts["heavy"] != 6 || counts["light"] != 3 {
		t.Fatalf("executions %v, want heavy=6 light=3 (order %v)", counts, order)
	}
	// Both tenants wait at pass 0.5: heavy's holder took its first stride
	// and light joined at the busy tenants' virtual time. Each launch queues
	// its sweep's next request before the point can settle, so the order is
	// exactly the stride order at weights 2:1, ties to heavy.
	want := "heavy light heavy heavy light heavy heavy light heavy"
	if got := strings.Join(order[1:], " "); got != want {
		t.Fatalf("drain order\n got %s\nwant %s", got, want)
	}
}

// queuedGrants reads a tenant's grant requests waiting for capacity.
func queuedGrants(d *dispatcher, tenant string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.tenants[tenant]; ok {
		return len(st.queue)
	}
	return 0
}

// recordExec notes each executed point's tenant (via the note callback) and
// returns instantly. gate, when set, runs inside the first execution; the
// single execution slot serializes every access to it.
type recordExec struct {
	base core.Config
	note func(tenant string)
	gate func()
}

func (r *recordExec) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	// Label encodes the tenant (set by grid()); fall back to the benchmark.
	tenant := j.Label
	if tenant == "" {
		tenant = j.Benchmark
	}
	if g := r.gate; g != nil {
		r.gate = nil
		g()
	}
	r.note(tenant)
	return (&runner.Engine{Base: r.base}).RunContext(ctx, j)
}

// grid expands n jobs of a benchmark with distinct core counts (distinct
// store keys), labelled with the submitting tenant for recordExec.
func grid(t *testing.T, bench string, n int) []runner.Job {
	t.Helper()
	jobs := make([]runner.Job, n)
	label := "heavy"
	if bench == "cholesky" {
		label = "light"
	}
	for i := range jobs {
		jobs[i] = runner.Job{
			Benchmark: bench,
			Runtime:   taskrt.Software,
			Scheduler: sched.FIFO,
			Cores:     8 * (i + 1),
			Label:     label,
		}
	}
	return jobs
}

// waitSweepDone polls a sweep until terminal.
func waitSweepDone(t *testing.T, sw *sweep) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if sw.status().State != StateRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", sw.id)
}
