package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	burst "repro"
	"repro/internal/service"
)

// remoteOptions carries burstlab's -remote submission inputs: either a
// suite file (with the usual suite flag overrides) or a scenario file
// wrapped as a single-cell suite.
type remoteOptions struct {
	scenarioPath string
	suite        suiteOptions
}

// runRemote submits the experiment to a running burstlabd, follows the
// job's row stream to completion, and mirrors local burstlab behavior:
// rows go to -out, the summary table prints, and the exit code
// distinguishes partial failure (3) from hard failure (1). The daemon
// owns execution — its shared memo serves repeated submissions — so
// -resume is meaningless here (the daemon resumes its own spool).
func runRemote(ctx context.Context, addr string, rerun bool, o remoteOptions) error {
	suite, err := buildRemoteSuite(o)
	if err != nil {
		return err
	}
	body, err := suite.JSON()
	if err != nil {
		return err
	}

	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{} // no timeout: the row stream is long-lived

	submitURL := base + "/api/v1/jobs"
	if rerun {
		submitURL += "?rerun=1"
	}
	st, err := postJob(ctx, client, submitURL, body)
	if err != nil {
		return err
	}
	if !o.suite.quiet {
		fmt.Fprintf(os.Stderr, "burstlab: job %s %s (%d cells) on %s\n", st.ID, st.State, st.Cells, base)
	}

	start := time.Now()
	rows, err := followRows(ctx, client, base, st.ID, o.suite.outPath)
	if err != nil {
		return err
	}
	st, err = getStatus(ctx, client, base, st.ID)
	if err != nil {
		return err
	}
	if st.State == service.JobFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if st.State != service.JobDone {
		return fmt.Errorf("job %s ended in state %q (daemon draining? resubmit after it restarts)", st.ID, st.State)
	}

	if !o.suite.quiet {
		printSuiteSummary(remoteReport(suite.Name, st, rows), time.Since(start))
		if m := st.Memo; m != nil {
			fmt.Printf("daemon cache: %d hits / %d misses this job (%d entries, %d bytes resident)\n",
				m.Hits(), m.Misses(), m.Entries, m.Bytes)
		}
	}
	if o.suite.outPath != "" && o.suite.outPath != "-" {
		fmt.Fprintf(os.Stderr, "burstlab: %d rows streamed to %s\n", len(rows), o.suite.outPath)
	}
	if st.Failed > 0 {
		return partialFailureError{failed: st.Failed, cells: st.Cells}
	}
	return nil
}

// buildRemoteSuite assembles the suite to submit: the -suite file with
// the usual flag overrides applied before hashing, or the -scenario
// file wrapped as a single-cell suite.
func buildRemoteSuite(o remoteOptions) (burst.Suite, error) {
	if o.suite.path != "" {
		return loadSuite(o.suite)
	}
	sc, err := burst.LoadScenario(o.scenarioPath)
	if err != nil {
		return burst.Suite{}, err
	}
	suite := burst.Suite{Name: sc.Name, Base: sc}
	o.suite.apply(&suite)
	return suite, nil
}

func postJob(ctx context.Context, client *http.Client, url string, body []byte) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("submit to daemon: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return service.JobStatus{}, fmt.Errorf("submit: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, fmt.Errorf("submit: parse response: %w", err)
	}
	return st, nil
}

func getStatus(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/jobs/"+id, nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("job status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("job status: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, fmt.Errorf("job status: parse response: %w", err)
	}
	return st, nil
}

// maxRefollows bounds how many times followRows re-opens a row stream
// that ended without the footer row.
const maxRefollows = 5

// followRows streams the job's JSONL rows until the job reaches a rest
// state, copying each raw line to outPath ("-" = stdout, "" = nowhere)
// and parsing it for the summary. The footer row is copied through like
// any other line. The daemon may end a follow before the footer — it
// drops a follower that falls behind — so, as its subscriber contract
// asks, a stream without the footer is followed again, up to
// maxRefollows times, unless the job failed or was interrupted (such
// runs write no footer). Every follow replays the spool from its first
// row, so lines already seen are skipped by position.
func followRows(ctx context.Context, client *http.Client, base, id, outPath string) ([]burst.SuiteRow, error) {
	var out io.Writer
	switch outPath {
	case "":
	case "-":
		out = os.Stdout
	default:
		f, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}

	var rows []burst.SuiteRow
	seen := 0
	for follows := 1; ; follows++ {
		footer, err := followOnce(ctx, client, base+"/api/v1/jobs/"+id+"/rows?follow=1", func(n int, line []byte) bool {
			var row burst.SuiteRow
			parsed := json.Unmarshal(line, &row) == nil
			isFooter := parsed && row.Status == burst.CellStatusFooter
			if n < seen {
				return isFooter
			}
			seen++
			if out != nil {
				out.Write(line)         //nolint:errcheck
				out.Write([]byte{'\n'}) //nolint:errcheck
			}
			if parsed && !isFooter {
				rows = append(rows, row)
			}
			return isFooter
		})
		if err != nil {
			return nil, err
		}
		if footer {
			return rows, nil
		}
		st, err := getStatus(ctx, client, base, id)
		if err != nil {
			return nil, err
		}
		if st.State == service.JobFailed || st.State == service.JobInterrupted {
			return rows, nil
		}
		if follows > maxRefollows {
			return nil, fmt.Errorf("follow rows: %d streams ended without the footer row (job %s)", follows, st.State)
		}
	}
}

// followOnce reads one row stream, calling line with each complete
// (newline-terminated, non-blank) line and its position in the stream,
// and reports whether line found the footer row. A trailing fragment
// cut off by a closed connection is not a line; the next follow
// delivers it whole.
func followOnce(ctx context.Context, client *http.Client, url string, line func(n int, data []byte) (isFooter bool)) (footer bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, fmt.Errorf("follow rows: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("follow rows: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}
	br := bufio.NewReader(resp.Body)
	for n := 0; ; {
		data, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			return footer, nil
		}
		if rerr != nil {
			return false, fmt.Errorf("follow rows: %w", rerr)
		}
		data = bytes.TrimSuffix(data, []byte{'\n'})
		if len(bytes.TrimSpace(data)) == 0 {
			continue
		}
		if line(n, data) {
			footer = true
		}
		n++
	}
}

// remoteReport reassembles a SuiteReport from the streamed rows and the
// job's final status so the local summary table renders unchanged.
func remoteReport(name string, st service.JobStatus, rows []burst.SuiteRow) *burst.SuiteReport {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	rep := &burst.SuiteReport{
		Name:    name,
		Cells:   st.Cells,
		Skipped: st.Skipped,
		Failed:  st.Failed,
		Rows:    rows,
	}
	if st.Memo != nil {
		rep.Memo = *st.Memo
	}
	return rep
}

func readErr(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}
