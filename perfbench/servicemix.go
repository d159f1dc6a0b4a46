package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	burst "repro"
	"repro/internal/core"
	"repro/internal/service"
)

// Service-mix shape. Each pass is a fixed batch of queries that two
// closed-loop clients take turns drawing from; one query in ten is a
// novel what-if, the rest re-run the warmed examples/service suite.
const (
	serviceClients = 2
	serviceBatch   = 80
	serviceNovel   = 8
	// serviceMemoEntries bounds the daemon's shared memo (burstlabd's
	// -memo-entries) so that novel queries evict older novel entries
	// within one run; the repeat suite's entries stay hot.
	serviceMemoEntries = 64
	// serviceVerifyNovel novel queries per run are checked bit for bit
	// against a local batch run of the same suite.
	serviceVerifyNovel = 4
	// novelCells is the cell count of a novel what-if grid.
	novelCells = 4
	// maxRefollows bounds how often a query follows its job's rows again
	// after a stream that ended without the footer row.
	maxRefollows = 2
)

// footerMark identifies the footer row a finished job's rows end with.
var footerMark = []byte(`"status":"` + core.CellStatusFooter + `"`)

// serviceMix runs an in-process burstlabd (service.New + Handler on a
// loopback listener) and drives it over HTTP with the protocol
// burstlab -remote speaks: POST /api/v1/jobs, then GET .../rows?follow=1
// until EOF. Its operations are queries.
type serviceMix struct {
	rng *rand.Rand // novel what-ifs, one stream over the whole run

	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	spool   string
	repeats [serviceClients][]byte // each client's copy of the repeat suite
	want    map[string][]byte      // cell hash -> expected row line
	cells   int                    // cells of the repeat suite
	xErr    float64                // repeat rows against the committed reference
	novelOK int                    // novel queries verified so far
}

func newServiceMix(seed int64) *serviceMix {
	return &serviceMix{rng: rand.New(rand.NewSource(seed))}
}

// query is one submitted suite and what came back.
type query struct {
	body      []byte
	rerun     bool
	novel     bool
	refused   bool
	rows      []byte
	start     time.Time
	end       time.Time
	status    service.JobStatus
	refollows int
	problems  []string
}

func (w *serviceMix) prepare(ctx context.Context) error {
	if err := w.close(); err != nil {
		return err
	}
	w.spool = filepath.Join(workDir, "perfbench-spool", fmt.Sprint(os.Getpid()))
	if err := os.RemoveAll(w.spool); err != nil {
		return err
	}
	svc, err := service.New(service.Config{SpoolDir: w.spool, JobWorkers: 2, MemoEntries: serviceMemoEntries})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(ctx) //nolint:errcheck // the listen error is the one to report
		return err
	}
	w.svc, w.url = svc, "http://"+ln.Addr().String()
	w.srv = &http.Server{Handler: svc.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}

	s, err := core.LoadSuite(serviceSuiteRef)
	if err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	w.want = map[string][]byte{}
	w.xErr = 0
	memo := burst.NewMemo()
	for c := range w.repeats {
		// Each client re-runs its own named copy: the cells and memo keys
		// are the examples/service ones, the job id is the client's.
		s.Name = fmt.Sprintf("service-capacity client %d", c+1)
		if w.repeats[c], err = s.JSON(); err != nil {
			return err
		}
		rep, err := burst.RunSuiteWithMemo(ctx, s, memo)
		if err != nil {
			return fmt.Errorf("local batch run: %w", err)
		}
		w.cells = len(rep.Rows)
		for _, row := range rep.Rows {
			line, err := json.Marshal(row)
			if err != nil {
				return err
			}
			w.want[row.Hash] = line
			ref := refs.Service[cellKey(row.Axes)]
			for i, res := range row.Report.Results {
				if res.MAP == nil || i >= len(ref) {
					return fmt.Errorf("cell %q: %w", row.Name, errNoRef)
				}
				w.xErr = math.Max(w.xErr, relErr(res.MAP.Throughput, ref[i]))
			}
		}
		// The first submission runs cold and warms the shared memo.
		q := w.do(ctx, nil, w.repeats[c], false)
		w.verify(ctx, &q, false)
		if len(q.problems) > 0 {
			return fmt.Errorf("cold run: %v", q.problems)
		}
	}
	return nil
}

// batch draws one pass's queries: serviceNovel novel what-ifs among
// serviceBatch queries, the rest repeats. The novel ones are stratified
// so that every batch carries a similar amount of novel work: the k-th
// lands in the k-th of serviceNovel equal slices of the batch, and each
// takes its db burstiness and think time from its own slice of their
// ranges, at seeded points within the slices.
func (w *serviceMix) batch() []*query {
	qs := make([]*query, serviceBatch)
	for i := range qs {
		qs[i] = &query{rerun: true}
	}
	span := serviceBatch / serviceNovel
	iSlice, zSlice := w.rng.Perm(serviceNovel), w.rng.Perm(serviceNovel)
	for k := 0; k < serviceNovel; k++ {
		qs[k*span+w.rng.Intn(span)] = &query{body: w.novelSuite(iSlice[k], zSlice[k]), novel: true}
	}
	return qs
}

// novelSuite is a K=2 what-if grid on the examples/service tiers: db
// burstiness I in [1, 400] (log scale) and think time in [0.25, 2] s
// drawn from the given slices of those ranges, one cold cell per
// population up to 40, solved by one cell worker so that a novel job
// leaves the second core to the repeat queries.
func (w *serviceMix) novelSuite(iSlice, zSlice int) []byte {
	slice := func(k int) float64 { return (float64(k) + w.rng.Float64()) / serviceNovel }
	dbI := math.Exp(slice(iSlice) * math.Log(400))
	z := 0.25 + 1.75*slice(zSlice)
	s := map[string]any{
		"name": fmt.Sprintf("what-if z=%.6f dbI=%.6f", z, dbI),
		"base": map[string]any{
			"think_time":  z,
			"populations": []int{10},
			"tiers": []map[string]any{
				{"name": "front", "mean": 0.006, "index_of_dispersion": 3, "p95": 0.015},
				{"name": "db", "mean": 0.009, "index_of_dispersion": dbI, "p95": 0.02},
			},
			"solvers": []string{"map", "mva"},
			"planner": map[string]any{"solver": map[string]any{"tol": 1e-8}},
		},
		"grid":    map[string]any{"populations": [][]int{{10}, {20}, {30}, {40}}},
		"workers": 1,
	}
	data, _ := json.Marshal(s) // plain maps, slices and numbers always encode
	return data
}

func (w *serviceMix) warmup(ctx context.Context) error {
	pr, err := w.pass(ctx, 0)
	if err == nil && len(pr.problems) > 0 {
		err = fmt.Errorf("%v", pr.problems)
	}
	return err
}

// pass sends one batch from the closed-loop clients, then checks every
// answer.
func (w *serviceMix) pass(ctx context.Context, _ int) (passResult, error) {
	qs := w.batch()
	var pr passResult
	pr.timed(func() { w.send(ctx, qs) })
	w.collect(ctx, qs, &pr)
	return pr, ctx.Err()
}

// send has serviceClients clients take the queries in turn, each sending
// its next one when the previous answer has arrived.
func (w *serviceMix) send(ctx context.Context, qs []*query) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				q := qs[i]
				body := q.body
				if !q.novel {
					body = w.repeats[c]
				}
				*q = w.do(ctx, nil, body, q.rerun)
				q.novel = !q.rerun
			}
		}(c)
	}
	wg.Wait()
}

// collect checks the answers and adds them to pr.
func (w *serviceMix) collect(ctx context.Context, qs []*query, pr *passResult) {
	pr.xErr = w.xErr
	for _, q := range qs {
		pr.ops++
		pr.retried += q.refollows
		w.verify(ctx, q, q.novel && w.novelOK < serviceVerifyNovel)
		if q.refused || len(q.problems) > 0 {
			pr.failed++
			pr.problems = append(pr.problems, q.problems...)
			continue
		}
		pr.ok++
		pr.opLat = append(pr.opLat, opLatency{d: q.end.Sub(q.start)})
	}
}

// do submits one suite and follows its rows to EOF. With a tracer, it
// records the submit and follow as spans and fetches the job status for
// its lifecycle timestamps.
func (w *serviceMix) do(ctx context.Context, tr *tracer, body []byte, rerun bool) query {
	q := query{body: body, rerun: rerun, start: time.Now()}
	url := w.url + "/api/v1/jobs"
	if rerun {
		url += "?rerun=1"
	}
	end := tr.begin("service.submit", "service", "")
	resp, err := w.request(ctx, http.MethodPost, url, body)
	end()
	if err != nil {
		q.problems = append(q.problems, err.Error())
		return q
	}
	if resp.code == http.StatusServiceUnavailable {
		q.refused = true
		q.end = time.Now()
		q.problems = append(q.problems, "submission refused: "+string(resp.body))
		return q
	}
	if err := json.Unmarshal(resp.body, &q.status); err != nil || (resp.code != http.StatusAccepted && resp.code != http.StatusOK) {
		q.problems = append(q.problems, fmt.Sprintf("submit: HTTP %d: %s", resp.code, resp.body))
		return q
	}
	// A follow stream ends once the job is at rest; a finished job's rows
	// end with its footer row. The service may close a follower earlier
	// (it drops slow subscribers, and a re-run job's new follower can be
	// closed by its previous run finishing), and then the follower has to
	// fetch again. Re-follows are counted, and their time stays in the
	// query's latency.
	var rows response
	for attempt := 0; attempt <= maxRefollows; attempt++ {
		if attempt > 0 {
			q.refollows++
		}
		end = tr.begin("service.follow", "service", q.status.ID[:12])
		rows, err = w.request(ctx, http.MethodGet, w.url+"/api/v1/jobs/"+q.status.ID+"/rows?follow=1", nil)
		end()
		if err != nil || bytes.Contains(rows.body, footerMark) {
			break
		}
	}
	q.end = time.Now()
	if err != nil {
		q.problems = append(q.problems, err.Error())
		return q
	}
	q.rows = rows.body
	if tr != nil {
		end = tr.begin("service.status", "service", q.status.ID[:12])
		st, err := w.request(ctx, http.MethodGet, w.url+"/api/v1/jobs/"+q.status.ID, nil)
		end()
		if err == nil {
			err = json.Unmarshal(st.body, &q.status)
		}
		if err != nil {
			q.problems = append(q.problems, "status: "+err.Error())
		}
	}
	return q
}

type response struct {
	code int
	body []byte
}

func (w *serviceMix) request(ctx context.Context, method, url string, body []byte) (response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return response{resp.StatusCode, data}, err
}

// verify checks a query's rows: a repeat must return the examples/service
// rows bit for bit as the local batch run produced them; a novel what-if
// must return one ok row per cell, and when deep is set, the same bytes
// as a local batch run of the submitted suite.
func (w *serviceMix) verify(ctx context.Context, q *query, deep bool) {
	if q.refused || len(q.problems) > 0 {
		return
	}
	lines := bytes.Split(bytes.TrimSpace(q.rows), []byte("\n"))
	var cells [][]byte
	for _, line := range lines {
		var row struct{ Status, Hash string }
		if err := json.Unmarshal(line, &row); err != nil {
			q.problems = append(q.problems, fmt.Sprintf("job %s: bad row: %v", q.status.ID[:12], err))
			return
		}
		if row.Status == core.CellStatusFooter {
			continue
		}
		if row.Status != core.CellStatusOK {
			q.problems = append(q.problems, fmt.Sprintf("job %s: cell %s is %s", q.status.ID[:12], row.Hash[:12], row.Status))
			continue
		}
		cells = append(cells, line)
		if !q.novel && !bytes.Equal(line, w.want[row.Hash]) {
			q.problems = append(q.problems, fmt.Sprintf("job %s: row %s differs from the local batch run", q.status.ID[:12], row.Hash[:12]))
		}
	}
	switch {
	case !q.novel && len(cells) != w.cells:
		q.problems = append(q.problems, fmt.Sprintf("job %s: %d rows, want %d", q.status.ID[:12], len(cells), w.cells))
	case q.novel && len(cells) != novelCells:
		q.problems = append(q.problems, fmt.Sprintf("job %s: %d rows, want %d", q.status.ID[:12], len(cells), novelCells))
	case q.novel && deep:
		w.novelOK++
		s, err := core.ParseSuite(q.body)
		if err != nil {
			q.problems = append(q.problems, err.Error())
			return
		}
		rep, err := burst.RunSuiteWithMemo(ctx, s, burst.NewMemo())
		if err != nil {
			q.problems = append(q.problems, "local batch run: "+err.Error())
			return
		}
		want := map[string][]byte{}
		for _, row := range rep.Rows {
			if want[row.Hash], err = json.Marshal(row); err != nil {
				q.problems = append(q.problems, err.Error())
				return
			}
		}
		for _, line := range cells {
			var row struct{ Hash string }
			if json.Unmarshal(line, &row) != nil || !bytes.Equal(line, want[row.Hash]) {
				q.problems = append(q.problems, fmt.Sprintf("job %s: row %.12s differs from the local batch run", q.status.ID[:12], row.Hash))
			}
		}
	}
}

// layered sends one batch from a single client, one query at a time,
// and reports the service's per-query lifecycle and memo traffic.
func (w *serviceMix) layered(ctx context.Context, tr *tracer, c counters) (passResult, error) {
	m0 := w.svc.Metrics().Memo
	qs := w.batch()
	var repeat, novel, wait, run, tail []time.Duration
	for i, q := range qs {
		body := w.repeats[0]
		if q.novel {
			body = q.body
		}
		end := tr.begin("service.query", "service", fmt.Sprintf("q%d", i))
		*q = w.do(ctx, tr, body, !q.novel)
		end()
		q.novel = !q.rerun
		if q.refused {
			c["service.refused"]++
			continue
		}
		c["service.refollows"] += float64(q.refollows)
		if q.novel {
			novel = append(novel, q.end.Sub(q.start))
		} else {
			repeat = append(repeat, q.end.Sub(q.start))
		}
		if st := q.status; st.StartedAt != nil && st.FinishedAt != nil {
			wait = append(wait, st.StartedAt.Sub(st.SubmittedAt))
			run = append(run, st.FinishedAt.Sub(*st.StartedAt))
			tail = append(tail, q.end.Sub(*st.FinishedAt))
		}
	}
	if ctx.Err() != nil {
		return passResult{}, ctx.Err()
	}
	m1 := w.svc.Metrics().Memo
	if tr != nil {
		hits, misses := m1.Hits()-m0.Hits(), m1.Misses()-m0.Misses()
		if hits+misses > 0 {
			c["memo.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		c["memo.solve_misses"] = float64(m1.SolveMisses - m0.SolveMisses)
		c["memo.evictions"] = float64(m1.Evictions - m0.Evictions)
		c["memo.bytes"] = float64(m1.Bytes)
		c["service.queue_wait_ms"] = ms(median(wait))
		c["service.run_ms"] = ms(median(run))
		c["service.stream_tail_ms"] = ms(median(tail))
		c["service.repeat_p50_ms"] = ms(median(repeat))
		c["service.novel_p50_ms"] = ms(median(novel))
	}
	var pr passResult
	w.collect(ctx, qs, &pr)
	return pr, nil
}

// close drains the daemon and removes its spool.
func (w *serviceMix) close() error {
	if w.svc == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := errors.Join(w.srv.Shutdown(ctx), w.svc.Close(ctx))
	<-w.served
	w.client.CloseIdleConnections()
	w.svc = nil
	return errors.Join(err, os.RemoveAll(w.spool))
}
