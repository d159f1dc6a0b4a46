package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	burst "repro"
	"repro/internal/service"
)

// fakeDaemon serves a job's row stream the way burstlabd does, except
// that the first `drops` follows end early: after `cut` rows, without
// the footer (the last one mid-line), as when the daemon drops a
// follower. The job status endpoint reports state.
func fakeDaemon(t *testing.T, drops, cut int, state service.JobState) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var lines []string
	for i := 0; i < 3; i++ {
		lines = append(lines, fmt.Sprintf(`{"index":%d,"name":"cell%d","hash":"h%d","status":"ok"}`, i, i, i))
	}
	lines = append(lines, `{"index":3,"status":"`+burst.CellStatusFooter+`","footer":{"cells":3}}`)
	var follows atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs/job1/rows", func(w http.ResponseWriter, r *http.Request) {
		if follows.Add(1) <= int32(drops) {
			for _, l := range lines[:cut] {
				fmt.Fprintln(w, l)
			}
			fmt.Fprint(w, lines[cut][:5]) // torn by the closed stream
			return
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/job1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobStatus{ID: "job1", State: state}) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &follows
}

// TestFollowRowsRefollowsWithoutFooter pins the subscriber contract on
// the client side: a stream that ends without the footer row is
// followed again, and the replayed prefix is neither duplicated in the
// rows nor in the -out file.
func TestFollowRowsRefollowsWithoutFooter(t *testing.T) {
	ts, follows := fakeDaemon(t, 1, 2, service.JobRunning)
	outPath := filepath.Join(t.TempDir(), "rows.jsonl")
	rows, err := followRows(context.Background(), ts.Client(), ts.URL, "job1", outPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := follows.Load(); got != 2 {
		t.Errorf("followed %d times, want 2", got)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Errorf("row %d has index %d", i, row.Index)
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 4 || !strings.Contains(lines[3], burst.CellStatusFooter) {
		t.Errorf("-out holds %d lines, want 3 rows + footer:\n%s", len(lines), data)
	}
}

// TestFollowRowsBounded checks the re-follows stop: after maxRefollows
// footerless streams of a job that should have one, and at once for a
// failed job, which writes no footer.
func TestFollowRowsBounded(t *testing.T) {
	ts, follows := fakeDaemon(t, 1000, 3, service.JobDone)
	if _, err := followRows(context.Background(), ts.Client(), ts.URL, "job1", ""); err == nil || !strings.Contains(err.Error(), "without the footer") {
		t.Errorf("endless footerless streams: err = %v", err)
	}
	if got := follows.Load(); got != maxRefollows+1 {
		t.Errorf("followed %d times, want %d", got, maxRefollows+1)
	}

	ts, follows = fakeDaemon(t, 1000, 1, service.JobFailed)
	rows, err := followRows(context.Background(), ts.Client(), ts.URL, "job1", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || follows.Load() != 1 {
		t.Errorf("failed job: %d rows over %d follows, want 1 row in 1 follow", len(rows), follows.Load())
	}
}

// TestRemoteSuiteMatchesLocal pins that a local -suite run and a -remote
// submission build the same suite from one set of flags, with each of the
// six suite-shaping overrides applied, and that the flags' defaults leave
// the suite file as it is.
func TestRemoteSuiteMatchesLocal(t *testing.T) {
	classes, err := burst.ParseClassList("browsing=3,ordering=1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "examples", "suite", "suite.json")
	o := suiteOptions{
		path: path, backend: string(burst.BackendMatrixFree), workers: 3,
		onError: string(burst.FailContinue), retries: 2,
		cellTimeout: 1500 * time.Millisecond, classes: classes,
	}
	local, err := loadSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := buildRemoteSuite(remoteOptions{suite: o})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rj, err := remote.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Fatalf("local and remote suites differ:\nlocal  %s\nremote %s", lj, rj)
	}
	b := local.Base
	if local.Workers != 3 || local.OnError != burst.FailContinue || local.Retry.MaxRetries != 2 ||
		b.Deadline != 1.5 || len(b.Classes) != 2 ||
		b.Planner == nil || b.Planner.Solver.Backend != burst.BackendMatrixFree {
		t.Errorf("overrides not applied: workers %d, on-error %q, retries %d, deadline %v, %d classes, planner %+v",
			local.Workers, local.OnError, local.Retry.MaxRetries, b.Deadline, len(b.Classes), b.Planner)
	}

	file, err := burst.LoadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := loadSuite(suiteOptions{path: path, retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := file.JSON()
	pj, _ := plain.JSON()
	if !bytes.Equal(fj, pj) {
		t.Errorf("default flags changed the suite:\nfile  %s\nflags %s", fj, pj)
	}
}
