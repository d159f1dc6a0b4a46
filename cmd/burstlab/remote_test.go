package main

import (
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
