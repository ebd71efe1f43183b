package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	saim "github.com/ising-machines/saim"
)

// jobRec is one submission's life as the client saw it, plus the
// server's own timestamps from the job envelope.
type jobRec struct {
	sent, done                   time.Time
	id                           string
	failed                       string // why the operation failed; "" when it succeeded
	requests, reqBytes, resBytes int
	submitted, started, finished time.Time
	res                          *wireResult
}

// serverMS is the time the job spent inside the server, submit to finish.
func (r *jobRec) serverMS() float64 { return 1000 * r.finished.Sub(r.submitted).Seconds() }

// serveOneBatchJob sends a batch workload's model once through a
// journaled saimserve with one worker (default interval fsync), at the
// seed of the first solve, for the service, journal and wire layers of
// the traced run. The served result must equal the in-process one.
func serveOneBatchJob(ctx context.Context, cfg config, bc batchCase, b *batchInst, seed uint64, want *saim.Result, out *outcome, tr *tracer) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("journal-%s-%d", bc.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(cfg.bin, "-workers", "1", "-data", dir)
	if err != nil {
		return err
	}
	defer srv.stop()
	raw, err := json.Marshal(b.decl)
	if err != nil {
		return err
	}
	opts, err := json.Marshal(b.wire)
	if err != nil {
		return err
	}
	body := fmt.Appendf(nil, `{"solver":"saim","model":%s,"options":%s,"seed":%s}}`,
		raw, opts[:len(opts)-1], strconv.FormatUint(seed, 10))

	before, err := srv.stats(ctx)
	if err != nil {
		return err
	}
	r := &jobRec{}
	if submit(ctx, srv, r, body); r.failed == "" {
		await(ctx, srv, r)
	}
	if r.failed == "" {
		check(out, b.compiled, r)
	}
	time.Sleep(100 * time.Millisecond) // the "finished" record follows the result
	after, err := srv.stats(ctx)
	if err != nil {
		return err
	}
	out.attempted++
	if r.failed != "" {
		out.failed++
		return fmt.Errorf("%s through saimserve: %s", bc.name, r.failed)
	}
	if *r.res.Cost != want.Cost {
		out.checkFailed(fmt.Sprintf("%s: served cost %v, in-process %v at the same seed", bc.name, *r.res.Cost, want.Cost))
	}
	root := tr.add("client.job", -1, r.id, r.sent, r.done)
	tr.add("service.queue", root, r.id, r.submitted, r.started)
	tr.add("service.run", root, r.id, r.started, r.finished)

	run := 1000 * r.finished.Sub(r.started).Seconds()
	clientS := r.done.Sub(r.sent).Seconds()
	out.layer("service.queue_wait_ms", "ms", 1000*r.started.Sub(r.submitted).Seconds())
	out.layer("service.run_ms", "ms", run)
	out.layer("service.busy_pct", "%", 100*run/(1000*clientS))
	out.layer("service.rejected", "count", 0)
	out.layer("service.dedup_hits", "count", float64(after.DedupHits-before.DedupHits))
	out.layer("wal.appends_per_job", "count", float64(after.WALAppended-before.WALAppended))
	out.layer("wal.bytes_per_job", "B", float64(after.WALBytes-before.WALBytes))
	out.layer("wal.syncs_per_s", "1/s", float64(after.WALSynced-before.WALSynced)/clientS)
	out.layer("saimserve.wire_ms", "ms", 1000*clientS-r.serverMS())
	out.layer("saimserve.req_bytes", "B", float64(r.reqBytes))
	out.layer("saimserve.resp_bytes", "B", float64(r.resBytes))
	out.layer("saimserve.requests_per_job", "count", float64(r.requests))
	out.notes["service"] = "batch workloads send their model once through a journaled saimserve with one worker: the service, wal and saimserve metrics describe that one job"
	const single = "unavailable: one job per run, and a percentile needs at least ten samples beyond it; the open-loop serve workloads that would measure it are not implemented"
	for _, name := range []string{"service.queue_wait_p50_ms", "service.queue_wait_p90_ms", "service.run_p50_ms", "saimserve.wire_p50_ms"} {
		out.notes[name] = single
	}
	out.notes["load.lag_p99_ms"] = "unavailable: no open-loop load generator; the one job is sent at once"
	return nil
}

func submit(ctx context.Context, srv *server, r *jobRec, body []byte) {
	r.sent = time.Now()
	status, data, err := srv.do(ctx, "POST", "/v1/jobs", body)
	r.requests++
	r.reqBytes += len(body)
	r.resBytes += len(data)
	switch {
	case err != nil:
		r.failed = "submit: " + err.Error()
	case status == 503:
		r.failed = "refused (503)"
	case status != 202:
		r.failed = fmt.Sprintf("submit: HTTP %d: %s", status, data)
	default:
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			r.failed = "submit: " + err.Error()
			return
		}
		r.id = env.ID
	}
}

// await waits for the job's result on its event stream, then reads the
// server's own timestamps from the job envelope.
func await(ctx context.Context, srv *server, r *jobRec) {
	req, err := http.NewRequestWithContext(ctx, "GET", srv.base+"/v1/jobs/"+r.id+"/events", nil)
	if err != nil {
		r.failed = err.Error()
		return
	}
	resp, err := srv.client.Do(req)
	r.requests++
	if err != nil {
		r.failed = "events: " + err.Error()
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		r.resBytes += len(line) + 1
		if name, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(name)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok || (event != "result" && event != "error") {
			continue
		}
		r.done = time.Now()
		var res wireResult
		if err := json.Unmarshal(data, &res); err != nil {
			r.failed = "result: " + err.Error()
		} else if event == "error" || res.Error != "" {
			r.failed = "job error: " + res.Error
		} else {
			r.res = &res
			readStamps(ctx, srv, r)
		}
		return
	}
	r.failed = fmt.Sprintf("event stream ended without a result: %v", sc.Err())
}

func readStamps(ctx context.Context, srv *server, r *jobRec) {
	status, data, err := srv.do(ctx, "GET", "/v1/jobs/"+r.id, nil)
	r.requests++
	r.resBytes += len(data)
	var env envelope
	if err != nil || status != 200 || json.Unmarshal(data, &env) != nil {
		r.failed = fmt.Sprintf("status: HTTP %d %v", status, err)
		return
	}
	r.submitted, r.started, r.finished = parseStamp(env.SubmittedAt), parseStamp(env.StartedAt), parseStamp(env.FinishedAt)
}

// check re-evaluates a served assignment against the submitted model.
func check(out *outcome, m *saim.Model, r *jobRec) {
	if !r.res.Feasible || r.res.Cost == nil {
		r.failed = "no feasible assignment"
		return
	}
	cost, feasible, err := m.Evaluate(r.res.Assignment)
	switch {
	case err != nil:
		out.checkFailed(fmt.Sprintf("job %s: %v", r.id, err))
		r.failed = "check failed"
	case !feasible:
		out.checkFailed(fmt.Sprintf("job %s: served assignment violates a constraint", r.id))
		r.failed = "check failed"
	case !sameCost(cost, *r.res.Cost):
		out.checkFailed(fmt.Sprintf("job %s: served cost %v, assignment evaluates to %v", r.id, *r.res.Cost, cost))
		r.failed = "check failed"
	}
}
