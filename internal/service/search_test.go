package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/task"
	"repro/internal/taskrt"
)

// syntheticExec is a counting runner.Executor with an analytically known
// cost surface: search tests can compute the exhaustive argmin themselves
// and verify both the winner and the execution count, without paying for
// real simulations.
type syntheticExec struct {
	base core.Config
	prog *task.Program

	mu    sync.Mutex
	calls int
}

func newSyntheticExec(base core.Config) *syntheticExec {
	b := task.NewBuilder("synthetic-exec")
	b.Task("kernel", 1000).Add()
	return &syntheticExec{base: base, prog: b.Build()}
}

// cost is the synthetic objective: convex in cores and granularity with a
// unique global minimum at tdm/fifo/cores=6/granularity=300.
func (e *syntheticExec) cost(j runner.Job) int64 {
	cfg := j.Config(e.base)
	c := int64(cfg.Machine.Cores) - 6
	g := j.Granularity/100 - 3
	v := 1000 + 100*c*c + 100*g*g
	if j.Runtime != taskrt.TDM {
		v += 10
	}
	if cfg.Scheduler != "fifo" {
		v += 5
	}
	return v
}

func (e *syntheticExec) Execute(_ context.Context, j runner.Job) (*core.Result, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	cfg := j.Config(e.base)
	cycles := e.cost(j)
	return &core.Result{
		Result: &taskrt.Result{
			Benchmark: j.Benchmark,
			Runtime:   j.Runtime,
			Scheduler: cfg.Scheduler,
			Cycles:    cycles,
			Seconds:   float64(cycles) / 1e9,
		},
		Program: e.prog,
	}, nil
}

func (e *syntheticExec) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

// searchTestServer builds a service whose local worker executes through the
// synthetic executor, so every point costs microseconds and has a known
// objective value.
func searchTestServer(t *testing.T) (*syntheticExec, *httptest.Server) {
	t.Helper()
	exec, _, ts := searchTestServerFull(t)
	return exec, ts
}

// searchTestServerRaw additionally exposes the Server for tests that tune
// its ingress limits.
func searchTestServerRaw(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	_, srv, ts := searchTestServerFull(t)
	return srv, ts
}

func searchTestServerFull(t *testing.T) (*syntheticExec, *Server, *httptest.Server) {
	t.Helper()
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	exec := newSyntheticExec(base)
	srv := New(&runner.Engine{Base: base, Store: runner.NewStore()}, 4)
	srv.local.exec = exec
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return exec, srv, ts
}

// searchGrid is a 200-point grid (2 runtimes x 2 schedulers x 10 cores x 5
// granularities over one benchmark) shared by the search service tests.
const searchGrid = `
	"benchmarks": ["histogram"],
	"runtimes": ["software", "tdm"],
	"schedulers": ["fifo", "lifo"],
	"cores": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
	"granularities": [100, 200, 300, 400, 500]`

// exhaustiveArgmin computes the true optimum of the synthetic cost over the
// grid the JSON above expands to.
func exhaustiveArgmin(t *testing.T, exec *syntheticExec) (runner.Job, int) {
	t.Helper()
	g := runner.Grid{
		Benchmarks:    []string{"histogram"},
		Runtimes:      []taskrt.Kind{taskrt.Software, taskrt.TDM},
		Schedulers:    []string{"fifo", "lifo"},
		Cores:         []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Granularities: []int64{100, 200, 300, 400, 500},
	}
	jobs := g.Jobs()
	best := 0
	for i, j := range jobs {
		if exec.cost(j) < exec.cost(jobs[best]) {
			best = i
		}
	}
	return jobs[best], len(jobs)
}

// TestSearchFindsExhaustiveArgmin pins the headline acceptance property: on
// a 200-point grid, a search with a half-space budget finds the same optimum
// the exhaustive sweep would, while executing at most 50% of the points.
func TestSearchFindsExhaustiveArgmin(t *testing.T) {
	exec, ts := searchTestServer(t)
	want, spacePoints := exhaustiveArgmin(t, exec)
	if spacePoints < 200 {
		t.Fatalf("test grid has %d points, want >= 200", spacePoints)
	}

	resp := postJSON(t, ts.URL+"/v1/sweeps", `{`+searchGrid+`,
		"search": {"objective": "min:cycles", "budget": 100, "rungs": 5, "seed": 11}
	}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if sub.Jobs != spacePoints {
		t.Errorf("submit jobs = %d, want %d", sub.Jobs, spacePoints)
	}
	if sub.Budget != 100 {
		t.Errorf("submit budget = %d, want 100", sub.Budget)
	}

	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	if st.Search == nil {
		t.Fatal("status has no search block")
	}
	if st.Search.SpacePoints != spacePoints {
		t.Errorf("space points = %d, want %d", st.Search.SpacePoints, spacePoints)
	}
	if st.Search.Evaluated > spacePoints/2 {
		t.Errorf("search evaluated %d points, want <= %d (50%%)",
			st.Search.Evaluated, spacePoints/2)
	}
	if got := exec.count(); got > spacePoints/2 {
		t.Errorf("executor ran %d times, want <= %d", got, spacePoints/2)
	}
	if st.Search.Saved != st.Search.SpacePoints-st.Search.Evaluated {
		t.Errorf("saved = %d, want %d", st.Search.Saved,
			st.Search.SpacePoints-st.Search.Evaluated)
	}
	if len(st.Search.Best) == 0 {
		t.Fatal("final status has no leaderboard")
	}
	got := st.Search.Best[0]
	wantCfg := want.Config(core.DefaultConfig(taskrt.Software))
	if got.Runtime != string(want.Runtime) || got.Scheduler != wantCfg.Scheduler ||
		got.Cores != wantCfg.Machine.Cores || got.Granularity != want.Granularity {
		t.Errorf("search winner %s/%s/%dc/g%d differs from exhaustive argmin %s/%s/%dc/g%d",
			got.Runtime, got.Scheduler, got.Cores, got.Granularity,
			want.Runtime, wantCfg.Scheduler, wantCfg.Machine.Cores, want.Granularity)
	}
	if got.Value != float64(exec.cost(want)) {
		t.Errorf("winner value = %v, want %d", got.Value, exec.cost(want))
	}
	// Total shrinks to the settled count at completion so done sweeps read
	// completed == total.
	if st.Total != st.Search.Evaluated || st.Completed != st.Search.Evaluated {
		t.Errorf("total/completed = %d/%d, want both %d",
			st.Total, st.Completed, st.Search.Evaluated)
	}
}

// TestSearchDeterministicAndWarm: resubmitting the same seeded search over a
// warm store yields a byte-identical leaderboard stream and re-executes
// nothing — every point is served from the content-addressed store.
func TestSearchDeterministicAndWarm(t *testing.T) {
	exec, ts := searchTestServer(t)
	body := `{` + searchGrid + `,
		"search": {"objective": "min:cycles", "budget": 60, "rungs": 4, "seed": 5}
	}`

	run := func() (leaderboards []string, results int) {
		resp := postJSON(t, ts.URL+"/v1/sweeps?stream=1", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream submit status = %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			if strings.Contains(line, `"row":"leaderboard"`) {
				leaderboards = append(leaderboards, line)
			} else {
				results++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return leaderboards, results
	}

	board1, results1 := run()
	calls1 := exec.count()
	if len(board1) == 0 {
		t.Fatal("first run streamed no leaderboard rows")
	}
	if results1 == 0 || results1 > 60 {
		t.Fatalf("first run streamed %d result rows, want 1..60", results1)
	}
	if calls1 == 0 {
		t.Fatal("first run executed nothing")
	}

	board2, results2 := run()
	if got := exec.count(); got != calls1 {
		t.Errorf("warm rerun executed %d new points, want 0", got-calls1)
	}
	if results2 != results1 {
		t.Errorf("warm rerun streamed %d result rows, first run %d", results2, results1)
	}
	if len(board2) != len(board1) {
		t.Fatalf("warm rerun streamed %d leaderboard rows, first run %d",
			len(board2), len(board1))
	}
	for i := range board1 {
		if board1[i] != board2[i] {
			t.Errorf("leaderboard row %d differs between identical seeded runs:\n%s\n%s",
				i, board1[i], board2[i])
		}
	}
}

// TestSearchStreamShape: the NDJSON stream interleaves per-point result rows
// with rung leaderboard rows, and the status endpoint tracks rung progress.
func TestSearchStreamShape(t *testing.T) {
	_, ts := searchTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweeps?stream=1", `{`+searchGrid+`,
		"search": {"objective": "max:cycles", "budget": 40, "rungs": 4, "seed": 2, "top": 3}
	}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submit status = %d", resp.StatusCode)
	}

	var boards []Point
	var points []Point
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var p Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("unparsable stream line %q: %v", sc.Text(), err)
		}
		if p.Row == RowLeaderboard {
			boards = append(boards, p)
		} else {
			points = append(points, p)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(boards) == 0 {
		t.Fatal("no leaderboard rows in the stream")
	}
	for i, b := range boards {
		if b.Rung != i+1 {
			t.Errorf("leaderboard row %d has rung %d, want %d", i, b.Rung, i+1)
		}
		if len(b.Best) == 0 || len(b.Best) > 3 {
			t.Errorf("rung %d leaderboard has %d entries, want 1..3 (top=3)",
				b.Rung, len(b.Best))
		}
		if i > 0 && b.Evaluated <= boards[i-1].Evaluated {
			t.Errorf("rung %d evaluated %d, not above rung %d's %d",
				b.Rung, b.Evaluated, boards[i-1].Rung, boards[i-1].Evaluated)
		}
	}
	final := boards[len(boards)-1]
	if final.Evaluated != len(points) {
		t.Errorf("final leaderboard evaluated = %d, stream carried %d result rows",
			final.Evaluated, len(points))
	}
	// max:cycles must rank the worst configuration first: far corner of the
	// convex bowl (cores=1 or 10, granularity=100 or 500).
	best := final.Best[0]
	if best.Cores != 1 && best.Cores != 10 {
		t.Errorf("max:cycles leader has cores=%d, want a bowl edge (1 or 10)", best.Cores)
	}

	for _, p := range points {
		if p.Key == "" {
			t.Error("result row without a store key")
			break
		}
	}
}

// TestSearchBadStanzas: malformed search stanzas are rejected up front with
// the invalid_search envelope code.
func TestSearchBadStanzas(t *testing.T) {
	_, ts := searchTestServer(t)
	cases := []struct {
		name   string
		stanza string
	}{
		{"no objective", `{}`},
		{"bad objective", `{"objective": "min:bogus"}`},
		{"bad strategy", `{"objective": "min:cycles", "strategy": "annealing"}`},
		{"negative top", `{"objective": "min:cycles", "top": -1}`},
		{"negative cycle budget", `{"objective": "min:cycles", "budget_cycles": -5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweeps",
				`{"benchmarks": ["histogram"], "search": `+tc.stanza+`}`)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			er := decode[ErrorResponse](t, resp.Body)
			if er.Code != CodeInvalidSearch {
				t.Errorf("code = %q, want %q", er.Code, CodeInvalidSearch)
			}
			if er.Error == "" {
				t.Error("envelope has an empty error message")
			}
		})
	}
}
