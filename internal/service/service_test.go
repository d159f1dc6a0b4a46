package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	burst "repro"
	"repro/internal/core"
)

// testSuite is a small deterministic model-only suite: explicit tiers,
// a population grid, no simulation — fast cells with real memo traffic.
func testSuite(name string, pops ...int) core.Suite {
	grid := make([][]int, len(pops))
	for i, n := range pops {
		grid[i] = []int{n}
	}
	return core.Suite{
		Name: name,
		Base: core.Scenario{
			Name:      name,
			ThinkTime: 0.5,
			Tiers: []core.TierSpec{
				{Name: "front", Mean: 0.006, IndexOfDispersion: 3, P95: 0.015},
				{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02},
			},
			Solvers: []core.SolverKind{core.SolverMAP, core.SolverMVA, core.SolverBounds},
		},
		Grid: core.Grid{Populations: grid},
	}
}

func mustJSONSuite(t *testing.T, s core.Suite) []byte {
	t.Helper()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc
}

// waitState polls until the job reaches want (or any terminal state)
// and returns the final status.
func waitState(t *testing.T, svc *Service, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cellReports maps hash → report JSON for every succeeded row.
func cellReports(t *testing.T, rows []core.SuiteRow) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, row := range rows {
		if row.Status != core.CellStatusOK || row.Report == nil {
			continue
		}
		data, err := json.Marshal(row.Report)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := out[row.Hash]; dup && prev != string(data) {
			t.Fatalf("hash %s has two different reports", row.Hash)
		}
		out[row.Hash] = string(data)
	}
	return out
}

func TestSubmitRunsJobAndDedupes(t *testing.T) {
	svc := newTestService(t, Config{})
	spec := mustJSONSuite(t, testSuite("unit", 5, 10))

	st, started, err := svc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("first submit did not start a job")
	}
	if st.Cells != 2 {
		t.Fatalf("cells = %d, want 2", st.Cells)
	}
	final := waitState(t, svc, st.ID, JobDone)
	if final.Done != 2 || final.Failed != 0 {
		t.Fatalf("final status %+v, want 2 done / 0 failed", final)
	}
	if final.Memo == nil || final.Memo.Misses() == 0 {
		t.Fatalf("cold job memo %+v, want misses recorded", final.Memo)
	}

	// Identical resubmission returns the finished job without running.
	st2, started2, err := svc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if started2 || st2.ID != st.ID || st2.State != JobDone {
		t.Fatalf("resubmit: started=%v state=%s id match=%v, want existing done job", started2, st2.State, st2.ID == st.ID)
	}

	// Rows spooled: 2 cells + footer, and the footer matches job memo.
	rows, err := core.ReadJSONLRows(filepath.Join(svc.cfg.SpoolDir, st.ID, "rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("spool has %d rows, want 2 cells + footer", len(rows))
	}
	footer := rows[len(rows)-1]
	if footer.Status != core.CellStatusFooter || footer.Footer == nil {
		t.Fatalf("last spool row %+v, want footer", footer)
	}
	if footer.Footer.Memo != *final.Memo {
		t.Fatalf("footer memo %+v != job memo %+v", footer.Footer.Memo, *final.Memo)
	}
}

// TestRerunServedFromSharedMemo is the acceptance pin: re-executing an
// identical suite on a warm daemon is all cache hits, zero misses, and
// its rows are bit-identical to the cold run's.
func TestRerunServedFromSharedMemo(t *testing.T) {
	svc := newTestService(t, Config{})
	spec := mustJSONSuite(t, testSuite("warm", 5, 10, 15))

	st, _, err := svc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitState(t, svc, st.ID, JobDone)
	coldRows, err := core.ReadJSONLRows(filepath.Join(svc.cfg.SpoolDir, st.ID, "rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	coldReports := cellReports(t, coldRows)
	if len(coldReports) != 3 {
		t.Fatalf("cold run produced %d cell reports, want 3", len(coldReports))
	}

	st2, started, err := svc.Submit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !started || st2.ID != st.ID {
		t.Fatalf("rerun submit: started=%v id=%s, want restart of %s", started, st2.ID, st.ID)
	}
	warm := waitState(t, svc, st.ID, JobDone)
	if warm.Runs != cold.Runs+1 {
		t.Fatalf("runs = %d, want %d", warm.Runs, cold.Runs+1)
	}
	if warm.Memo == nil || warm.Memo.Misses() != 0 {
		t.Fatalf("warm job memo %+v, want zero misses (served from shared memo)", warm.Memo)
	}
	if warm.Memo.Hits() == 0 {
		t.Fatalf("warm job memo %+v, want hits", warm.Memo)
	}

	warmRows, err := core.ReadJSONLRows(filepath.Join(svc.cfg.SpoolDir, st.ID, "rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	warmReports := cellReports(t, warmRows)
	if len(warmReports) != len(coldReports) {
		t.Fatalf("warm run produced %d cell reports, want %d", len(warmReports), len(coldReports))
	}
	for hash, want := range coldReports {
		if warmReports[hash] != want {
			t.Fatalf("cell %s: warm report differs from cold", hash)
		}
	}
}

func TestSubmitScenarioWrappedAsSuite(t *testing.T) {
	svc := newTestService(t, Config{})
	sc := testSuite("single", 5).Base
	sc.Populations = []int{5, 10}
	data, err := core.CanonicalJSON(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, started, err := svc.Submit(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if !started || st.Cells != 1 {
		t.Fatalf("scenario submit: started=%v cells=%d, want a fresh 1-cell job", started, st.Cells)
	}
	final := waitState(t, svc, st.ID, JobDone)
	if final.Done != 1 {
		t.Fatalf("final %+v, want 1 done cell", final)
	}
}

func TestSubmitRejectsGarbage(t *testing.T) {
	svc := newTestService(t, Config{})
	if _, _, err := svc.Submit([]byte(`{"nonsense": true}`), false); err == nil {
		t.Fatal("garbage submission accepted")
	}
	if _, _, err := svc.Submit([]byte(`not json`), false); err == nil {
		t.Fatal("non-JSON submission accepted")
	}
	// A structurally valid suite with an invalid scenario fails expansion.
	if _, _, err := svc.Submit([]byte(`{"base": {}}`), false); err == nil {
		t.Fatal("empty-scenario suite accepted")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := mustJSONSuite(t, testSuite("http", 5, 10))
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Follow the row stream to completion: 2 cell rows + 1 footer.
	follow, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/rows?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer follow.Body.Close()
	var rows []core.SuiteRow
	scanner := bufio.NewScanner(follow.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for scanner.Scan() {
		if len(strings.TrimSpace(scanner.Text())) == 0 {
			continue
		}
		var row core.SuiteRow
		if err := json.Unmarshal(scanner.Bytes(), &row); err != nil {
			t.Fatalf("bad streamed row %q: %v", scanner.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("followed %d rows, want 3 (2 cells + footer)", len(rows))
	}
	if rows[len(rows)-1].Status != core.CellStatusFooter {
		t.Fatalf("stream did not end with the footer: %+v", rows[len(rows)-1])
	}

	// Status, list, metrics, health.
	stResp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(stResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if got.State != JobDone {
		t.Fatalf("status after stream end = %q, want done", got.State)
	}
	list, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if list.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", list.StatusCode)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, metrics)); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"burstlabd_jobs{state=\"done\"} 1", "burstlabd_memo_misses_total", "burstlabd_memo_entries"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", health.StatusCode)
	}

	// Unknown job → 404; wrong method → 405.
	nf, _ := http.Get(ts.URL + "/api/v1/jobs/deadbeef")
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", nf.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestDrainCheckpointsAndRestartResumes is the SIGTERM-drain acceptance
// test (run under -race in CI): jobs are interrupted mid-run by an
// expired drain deadline, every already-finished cell's row survives in
// the spool, and a new service over the same spool resumes the jobs to
// a final row set bit-identical to an uninterrupted batch run.
func TestDrainCheckpointsAndRestartResumes(t *testing.T) {
	spool := t.TempDir()
	suites := []core.Suite{
		testSuite("drain-a", 10, 20, 30),
		testSuite("drain-b", 15, 25, 35),
	}

	svc, err := New(Config{SpoolDir: spool, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(suites))
	for i, s := range suites {
		st, _, err := svc.Submit(mustJSONSuite(t, s), false)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	// Give the workers a moment to start, then drain with an expired
	// deadline: running jobs are checkpointed immediately.
	time.Sleep(50 * time.Millisecond)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Close(expired); err != nil {
		t.Fatal(err)
	}
	if !svc.Draining() {
		t.Fatal("service not draining after Close")
	}
	if _, _, err := svc.Submit(mustJSONSuite(t, testSuite("late", 5)), false); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	// No lost or torn rows: every spooled row parses and belongs to the
	// job's cell set, with no duplicate completed cells.
	for i, s := range suites {
		cells, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		valid := map[string]bool{}
		for _, c := range cells {
			valid[c.Hash] = true
		}
		path := filepath.Join(spool, ids[i], "rows.jsonl")
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue // job never started; nothing spooled yet
		}
		st, err := core.ReadJSONLResume(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Malformed != 0 {
			t.Fatalf("job %s: %d torn lines after graceful drain, want 0", ids[i], st.Malformed)
		}
		for h := range st.Done {
			if !valid[h] {
				t.Fatalf("job %s: spooled row for unknown cell %s", ids[i], h)
			}
		}
	}

	// Restart over the same spool: interrupted jobs resume and finish.
	svc2 := newTestService(t, Config{SpoolDir: spool, JobWorkers: 2})
	for i, s := range suites {
		final := waitState(t, svc2, ids[i], JobDone)
		if final.Failed != 0 {
			t.Fatalf("job %s finished with %d failed cells", ids[i], final.Failed)
		}

		rows, err := core.ReadJSONLRows(filepath.Join(spool, ids[i], "rows.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		got := cellReports(t, rows)

		// Uninterrupted reference run through the same facade pipeline.
		ref, err := burst.RunSuite(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref.Rows) {
			t.Fatalf("job %s: %d completed cells after resume, want %d", ids[i], len(got), len(ref.Rows))
		}
		for _, row := range ref.Rows {
			want, err := json.Marshal(row.Report)
			if err != nil {
				t.Fatal(err)
			}
			if got[row.Hash] != string(want) {
				t.Fatalf("job %s cell %s: resumed report differs from uninterrupted run", ids[i], row.Hash)
			}
		}
	}
}

// TestRecoveryRegistersTerminalJobs pins restart bookkeeping: finished
// jobs come back as done (with their persisted stats) without re-running.
func TestRecoveryRegistersTerminalJobs(t *testing.T) {
	spool := t.TempDir()
	svc, err := New(Config{SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	spec := mustJSONSuite(t, testSuite("recover", 5))
	st, _, err := svc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, st.ID, JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, Config{SpoolDir: spool})
	got, err := svc2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone || got.Runs != final.Runs {
		t.Fatalf("recovered job %+v, want done with runs=%d", got, final.Runs)
	}
	if got.Memo == nil || *got.Memo != *final.Memo {
		t.Fatalf("recovered memo %+v != persisted %+v", got.Memo, final.Memo)
	}
	// Resubmitting does not re-run it.
	st2, started, err := svc2.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if started || st2.State != JobDone {
		t.Fatalf("resubmit after recovery: started=%v state=%s, want existing done job", started, st2.State)
	}
}

// TestRerunFollowSeesFooter is the regression test for the rerun
// follower race: a finishing run used to publish its terminal status
// before writing the status file and closing its followers, so a
// ?rerun=1 submit landing in between had its new follower closed by the
// old run, and that stream ended with no rows. Eight clients, each on its
// own job, run several hundred rerun+follow rounds; every first follow
// must end with the footer row.
func TestRerunFollowSeesFooter(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const clients, rounds = 8, 150
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		suite := testSuite(fmt.Sprintf("rerun-race-%d", c), 5)
		suite.Base.Solvers = []core.SolverKind{core.SolverMVA, core.SolverBounds}
		spec := string(mustJSONSuite(t, suite))
		go func() {
			errs <- func() error {
				for r := 0; r < rounds; r++ {
					resp, err := http.Post(ts.URL+"/api/v1/jobs?rerun=1", "application/json", strings.NewReader(spec))
					if err != nil {
						return err
					}
					var st JobStatus
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						return fmt.Errorf("round %d: submit: %w", r, err)
					}
					follow, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/rows?follow=1")
					if err != nil {
						return err
					}
					body := readAll(t, follow)
					follow.Body.Close()
					if !strings.Contains(body, `"status":"`+core.CellStatusFooter+`"`) {
						return fmt.Errorf("round %d: first follow ended without the footer row: %q", r, body)
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range svc.Jobs() {
		disk, err := readStatusFile(filepath.Join(svc.cfg.SpoolDir, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		if disk.State != JobDone || disk.Runs != st.Runs {
			t.Errorf("job %s: status file %q after %d runs, in memory %q after %d", st.ID, disk.State, disk.Runs, st.State, st.Runs)
		}
	}
}

// TestSubmitRefusesHugeGrid is the regression test for the submit-time
// OOM: a 78 KB suite with three 3,000-value axes (2.7e10 cells) is
// refused with a 4xx instead of being expanded, and the daemon keeps
// serving.
func TestSubmitRefusesHugeGrid(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	values := func(start float64) []float64 {
		out := make([]float64, 3000)
		for i := range out {
			out[i] = (start*1e3 + float64(i)) / 1e3
		}
		return out
	}
	suite := testSuite("huge", 5)
	suite.Grid = core.Grid{
		TierAxes: []core.TierAxis{
			{Tier: 0, Param: core.TierParamMean, Values: values(0.006)},
			{Tier: 1, Param: core.TierParamI, Values: values(40)},
		},
		ThinkTimes: values(0.5),
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(mustJSONSuite(t, suite))))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 || !strings.Contains(body, "cell limit") {
		t.Fatalf("huge grid submit = %d %q, want a 4xx naming the cell limit", resp.StatusCode, body)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK || len(svc.Jobs()) != 0 {
		t.Fatalf("after the refused submit: healthz %d, %d jobs", health.StatusCode, len(svc.Jobs()))
	}
}
