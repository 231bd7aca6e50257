package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"syscall"
	"time"
)

// Workload parameters. The reference rates load a 2-core runner to about
// a quarter of its capacity, so the reference latency is mostly service
// time: near saturation, queueing multiplies every burst of CPU time the
// host steals into a much larger latency swing.
const (
	coldRefRate = 40.0
	hotRefRate  = 60.0
	hotSet      = 1024
	verifyRate  = 8.0

	sliceDur     = time.Second // one reference or capacity slice
	warmRequests = 40
)

// pass is the outcome of one workload pass against one tdserve process.
type pass struct {
	setup      []float64 // seconds, one per set-up
	e2e        map[string]float64
	lines      []string // human-readable report
	attempted  int
	failed     int
	wrong      int
	layer      map[string]float64 // per-layer figures observed from outside the replay
	replay     replayInput
	flightDump []byte
}

func (p *pass) report(format string, args ...any) {
	p.lines = append(p.lines, fmt.Sprintf(format, args...))
}

// replayInput is what the traced replay needs from a pass: the pictures
// and client latencies of its requests, its verification dumps and its
// job submissions.
type replayInput struct {
	model    string
	requests []replayReq
	dumps    []*verifyReq
	jobs     [][]jobItem
	warmJob  []jobItem
}

type replayReq struct {
	rid       string
	pic       picture
	hit       bool
	latencyMS float64
}

// env is the per-pass context shared by the workloads.
type env struct {
	ctx     context.Context
	srv     *server
	pool    *pool
	rng     *rand.Rand
	seconds float64
	p       *pass
}

// translateSend posts one picture to /v1/translate and checks the answer:
// 200, the expected X-Cache outcome and a body byte-identical to the
// in-process artifact.
func translateSend(addr string, pic picture, wantCache, rid string) func(c *http.Client) outcome {
	return func(c *http.Client) outcome {
		req, _ := http.NewRequest(http.MethodPost, addr+"/v1/translate", bytes.NewReader(pic.png))
		req.Header.Set("Content-Type", "image/png")
		req.Header.Set("X-Request-ID", rid)
		resp, err := c.Do(req)
		if err != nil {
			return outcome{failure: "transport: " + err.Error()}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		end := time.Now()
		oc := outcome{cache: resp.Header.Get("X-Cache"), end: end}
		switch {
		case err != nil:
			oc.failure = "read: " + err.Error()
		case resp.StatusCode != http.StatusOK:
			oc.failure = fmt.Sprintf("status %d", resp.StatusCode)
		case oc.cache != wantCache:
			oc.failure, oc.wrong = "X-Cache "+oc.cache+", want "+wantCache, true
		case !bytes.Equal(body, pic.base.artifact):
			oc.failure, oc.wrong = "body differs from the in-process artifact", true
		}
		return oc
	}
}

// verifySend posts one by-ref verification and reads the NDJSON stream up
// to its summary line, which ends the timed operation; the summary must
// equal the in-process verdict.
func verifySend(addr string, v *verifyReq, rid string) func(c *http.Client) outcome {
	return func(c *http.Client) outcome {
		req, _ := http.NewRequest(http.MethodPost, addr+"/v1/verify", bytes.NewReader(v.body))
		req.Header.Set("Content-Type", v.contentType)
		req.Header.Set("X-Request-ID", rid)
		resp, err := c.Do(req)
		if err != nil {
			return outcome{failure: "transport: " + err.Error()}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return outcome{failure: fmt.Sprintf("status %d", resp.StatusCode), end: time.Now()}
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			var line verifySummary
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return outcome{failure: "bad NDJSON line", wrong: true, end: time.Now()}
			}
			switch line.Type {
			case "summary":
				end := time.Now()
				io.Copy(io.Discard, resp.Body)
				if !v.want.matches(line) {
					return outcome{failure: "summary differs from vcd.Parse + monitor.Check", wrong: true, end: end}
				}
				return outcome{end: end}
			case "error":
				return outcome{failure: "stream error: " + sc.Text(), wrong: true, end: time.Now()}
			}
		}
		return outcome{failure: "stream ended without a summary", end: time.Now()}
	}
}

// serveRun is the timed phase of a serve workload, which alternates
// reference and capacity slices.
type serveRun struct {
	ref      []sample      // translate requests of the reference slices, in send order
	verify   []sample      // verify requests, serve-hot only
	capacity []sample      // translate requests of the capacity slices
	rates    []float64     // each capacity slice's completion rate, 1/s
	refTime  time.Duration // the reference slices' total length
	backlog  int           // reference slices whose backlog grew
	cpu      time.Duration // server CPU time during the reference slices
	d        promSample    // /metrics deltas over the whole timed phase
}

// serveSlices runs a serve workload's timed phase: --seconds of
// alternating one-second slices. A reference slice sends translate
// requests open loop at refRate on rc and, with a verify client vc, an
// open-loop verify stream at verifyRate over dumps beside them; the
// server's CPU time is measured across it. A capacity slice then keeps
// every client in cc busy with translate requests, closed loop.
// Alternating spreads both measurements over the whole run, so a spell of
// slow host CPU weighs on latency and throughput alike instead of on
// whichever phase it fell in. next(phase, i) builds the i-th translate
// request of a phase, numbered across slices.
func (e *env) serveSlices(rc, cc []*http.Client, vc *http.Client, dumps []*verifyReq, refRate float64, next func(phase string, i int) func(*http.Client) outcome) (r serveRun, err error) {
	pairs := max(int(e.seconds/(2*sliceDur.Seconds())), 1)
	nRef := int(math.Round(refRate * sliceDur.Seconds()))
	nVerify := int(math.Round(verifyRate * sliceDur.Seconds()))
	var serr error
	_, r.d, err = e.cpuWindow(func() {
		for k := 0; k < pairs && e.ctx.Err() == nil; k++ {
			sched := arrivals(e.rng, nRef, sliceDur)
			reqs := make([]func(*http.Client) outcome, nRef)
			for i := range reqs {
				reqs[i] = next("ref", len(r.ref)+i)
			}
			var vdone chan []sample
			if vc != nil {
				vsched := arrivals(e.rng, nVerify, sliceDur)
				// Round robin, so every run verifies the same mix of
				// satisfying and violating dumps.
				base := len(r.verify)
				picks := make([]*verifyReq, nVerify)
				for i := range picks {
					picks[i] = dumps[(base+i)%len(dumps)]
				}
				vdone = make(chan []sample, 1)
				go func() {
					vdone <- openLoop(e.ctx, []*http.Client{vc}, vsched, func(c *http.Client, i int) outcome {
						return verifySend(e.srv.addr, picks[i], fmt.Sprintf("verify-%d", base+i))(c)
					})
				}()
			}
			before, err := e.srv.sample()
			if err != nil {
				serr = err
			}
			t0 := time.Now()
			ss := openLoop(e.ctx, rc, sched, func(c *http.Client, i int) outcome { return reqs[i](c) })
			if vdone != nil {
				r.verify = append(r.verify, <-vdone...)
			}
			r.refTime += time.Since(t0)
			after, err := e.srv.sample()
			if err != nil {
				serr = err
			}
			r.cpu += after.cpu - before.cpu
			late := make([]time.Duration, len(ss))
			at := make([]time.Duration, len(ss))
			for i, s := range ss {
				at[i], late[i] = s.sched, s.sent-s.sched
			}
			if backlogGrowing(at, late) {
				r.backlog++
			}
			r.ref = append(r.ref, ss...)

			base := len(r.capacity)
			cs := closedLoop(e.ctx, cc, sliceDur, func(i int) func(*http.Client) outcome { return next("cap", base+i) })
			if rate := sliceRate(cs); rate > 0 {
				r.rates = append(r.rates, rate)
			}
			r.capacity = append(r.capacity, cs...)
		}
	})
	if err == nil {
		err = serr
	}
	return r, err
}

// latencyStats reports a latency distribution's median and its highest
// tail percentile with at least ten samples beyond it.
func latencyStats(ss []sample) (p50, tail, q float64) {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = s.latencyMS()
	}
	sorted := sortedCopy(lat)
	q = tailQ(len(sorted), 0.99)
	return quantile(sorted, 0.5), quantile(sorted, q), q
}

// countFailures tallies failed and wrong samples.
func countFailures(ss []sample) (failed, wrong int) {
	for _, s := range ss {
		if s.failure != "" {
			failed++
		}
		if s.wrong {
			wrong++
		}
	}
	return failed, wrong
}

func (e *env) noteFailures(ss []sample, where string) {
	shown := 0
	for _, s := range ss {
		if s.wrong {
			e.p.wrong++
		}
		if s.failure != "" && shown < 3 {
			e.p.report("failure %s: %s", where, s.failure)
			shown++
		}
	}
}

// cpuWindow measures the server's CPU time and the metric deltas over fn,
// and records the share of the machine's CPU time the hypervisor stole
// meanwhile and a calibration loop's time before and after: validity
// checks, since stolen time and a slow host CPU slow every timing.
func (e *env) cpuWindow(fn func()) (time.Duration, promSample, error) {
	// Start from clean page cache: the warm-up's (and earlier runs')
	// dirty data would otherwise be written back during the window.
	syscall.Sync()
	calib0 := hostCalibMS()
	steal0, total0 := hostSteal()
	defer func() {
		steal1, total1 := hostSteal()
		e.p.layer["host.steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
		e.p.report("host steal %.2f %%", e.p.layer["host.steal_pct"])
		calib1 := hostCalibMS()
		e.p.layer["host.calib_ms"] = (calib0 + calib1) / 2
		e.p.report("host calibration loop %.1f ms before, %.1f ms after", calib0, calib1)
	}()
	before, err := e.srv.sample()
	if err != nil {
		return 0, nil, err
	}
	m0, err := e.srv.scrape()
	if err != nil {
		return 0, nil, err
	}
	fn()
	after, err := e.srv.sample()
	if err != nil {
		return 0, nil, err
	}
	m1, err := e.srv.scrape()
	if err != nil {
		return 0, nil, err
	}
	e.p.report("server CPU over the timed phase %.2fs, %.2fs of it in the kernel; %d write calls, %.1f MB written, %.1f MB to disk",
		(after.cpu - before.cpu).Seconds(), (after.sys - before.sys).Seconds(), after.io["syscw"]-before.io["syscw"],
		float64(after.io["wchar"]-before.io["wchar"])/1e6, float64(after.io["write_bytes"]-before.io["write_bytes"])/1e6)
	return after.cpu - before.cpu, m1.delta(m0), nil
}

// serverSide records the per-layer figures the server's own counters give
// for a window.
func (e *env) serverSide(d promSample) {
	l := e.p.layer
	hits, misses := d.get("tdstore_hits_total"), d.get("tdstore_misses_total")
	l["store.hit_ratio"] = ratio(hits, hits+misses)
	l["serve.rejected"] = d.get("tdserve_queue_rejections_total")
	for _, st := range stages {
		n := d.get(`tdmagic_stage_seconds_count{stage="` + st + `"}`)
		l["serve.stage_mean_ms."+st] = 1e3 * ratio(d.get(`tdmagic_stage_seconds_sum{stage="`+st+`"}`), n)
	}
}

var stages = []string{"binarize", "lad", "sed", "ocr", "sei"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warmUp sends pics closed-loop over the clients, checking each answer;
// it returns the failures.
func (e *env) warmUp(clients []*http.Client, pics []picture, wantCache string) int {
	sched := make([]time.Duration, len(pics))
	ss := openLoop(e.ctx, clients, sched, func(c *http.Client, i int) outcome {
		return translateSend(e.srv.addr, pics[i], wantCache, fmt.Sprintf("warm-%d", i))(c)
	})
	failed, _ := countFailures(ss)
	e.noteFailures(ss, "warm-up")
	return failed + len(pics) - len(ss)
}

// serveCold: /v1/translate on two connections, open loop at the reference
// rate and then closed loop; every picture is new, so neither the LRU nor
// the store can answer.
func (e *env) serveCold() error {
	clients := []*http.Client{newClient(10 * time.Second), newClient(10 * time.Second)}
	warm := make([]picture, warmRequests)
	for i := range warm {
		warm[i] = e.pool.fresh()
	}
	if n := e.warmUp(clients, warm, "miss"); n > 0 {
		e.p.report("warm-up: %d failures", n)
	}
	var refPics []picture
	r, err := e.serveSlices(clients, clients, nil, nil, coldRefRate,
		func(phase string, i int) func(*http.Client) outcome {
			pic := e.pool.fresh()
			if phase == "ref" {
				refPics = append(refPics, pic)
			}
			return translateSend(e.srv.addr, pic, "miss", fmt.Sprintf("%s-%d", phase, i))
		})
	if err != nil {
		return err
	}
	e.finishServe(r, refPics, refPics, false)
	return nil
}

// serveHot: connection 1 sends /v1/translate over 1,024 pre-translated
// pictures with Zipf skew (head in the LRU, tail in the store), open loop
// at the reference rate and then closed loop; connection 2 streams ≈1 MB
// VCD dumps to /v1/verify by ref at a fixed 8 req/s throughout.
func (e *env) serveHot() error {
	clients := []*http.Client{newClient(10 * time.Second), newClient(30 * time.Second)}
	hot := make([]picture, hotSet)
	for i := range hot {
		hot[i] = e.pool.fresh()
	}
	if n := e.warmUp(clients, hot, "miss"); n > 0 {
		e.p.report("warm-up: %d failures", n)
	}
	dumps, err := e.verifyDumps(hot)
	if err != nil {
		return err
	}
	e.p.replay.dumps = dumps
	seq := zipfSeq(e.rng, hotSet, 1<<20)
	pos := 0
	var refPics []picture
	r, err := e.serveSlices(clients[:1], clients, clients[1], dumps, hotRefRate,
		func(phase string, i int) func(*http.Client) outcome {
			pic := hot[seq[pos%len(seq)]]
			pos++
			if phase == "ref" {
				refPics = append(refPics, pic)
			}
			return translateSend(e.srv.addr, pic, "hit", fmt.Sprintf("%s-%d", phase, i))
		})
	if err != nil {
		return err
	}
	e.finishServe(r, refPics, hot, true)
	return nil
}

// verifyDumps prepares up to eight verification requests, a satisfying
// and a violating dump for each of up to four hot pictures.
func (e *env) verifyDumps(hot []picture) ([]*verifyReq, error) {
	var out []*verifyReq
	seen := map[*basePic]bool{}
	for _, pic := range hot {
		if len(out) >= 8 {
			break
		}
		if seen[pic.base] {
			continue
		}
		seen[pic.base] = true
		ref, err := inputHash(pic.png)
		if err != nil {
			return nil, err
		}
		for _, violate := range []bool{false, true} {
			v, ok, err := newVerifyReq(ref, pic.base.spoVal, violate)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve-hot: no hot picture has a verifiable spec")
	}
	return out, nil
}

// finishServe turns a serve workload's timed phase into its metrics.
// Latency and CPU per operation come from the reference slices,
// throughput from the capacity slices, and the error rate from both.
// Output quality counts each distinct picture once.
func (e *env) finishServe(r serveRun, refPics, distinct []picture, hot bool) {
	p := e.p
	e.noteFailures(r.ref, "reference")
	e.noteFailures(r.verify, "verify")
	e.noteFailures(r.capacity, "capacity")
	attempted, failed := 0, 0
	for _, ss := range [][]sample{r.ref, r.verify, r.capacity} {
		f, _ := countFailures(ss)
		attempted += len(ss)
		failed += f
	}
	p.attempted += attempted
	p.failed += failed

	p50, tail, q := latencyStats(r.ref)
	lat := make([]float64, len(r.ref))
	lateMS := make([]float64, len(r.ref))
	for i, s := range r.ref {
		lat[i], lateMS[i] = s.latencyMS(), s.lateMS()
	}
	sorted := sortedCopy(lat)
	exact := 0
	for _, pic := range distinct {
		if pic.base.exact {
			exact++
		}
	}
	hits, sent, ok := 0, 0, 0
	for _, ss := range [][]sample{r.ref, r.capacity} {
		for _, s := range ss {
			sent++
			if s.failure == "" {
				ok++
			}
			if s.cache == "hit" {
				hits++
			}
		}
	}

	p.e2e["p50_ms"] = p50
	p.e2e["throughput_per_s"] = median(r.rates)
	p.e2e["cpu_ms_per_op"] = float64(r.cpu) / 1e6 / float64(max(len(r.ref)+len(r.verify), 1))
	p.e2e["ok_ratio"] = 1 - ratio(float64(failed), float64(attempted))
	p.e2e["spo_exact_pct"] = 100 * ratio(float64(exact), float64(len(distinct)))
	p.report("metric translate_p50_ms %.4f ms n=%d", p50, len(r.ref))
	p.report("metric translate_p90_ms %.4f ms n=%d", quantile(sorted, 0.9), len(r.ref))
	p.report("metric translate_p95_ms %.4f ms n=%d", quantile(sorted, 0.95), len(r.ref))
	p.report("metric translate_p99_ms %.4f ms n=%d (p%g, %d beyond)", tail, len(r.ref), 100*q, beyond(len(r.ref), q))
	p.report("reference slices %.1f req/s over %.1fs, %d with a growing backlog",
		float64(len(r.ref))/r.refTime.Seconds(), r.refTime.Seconds(), r.backlog)
	p.report("metric translate_capacity_rps %.2f req/s median of %d slices, %d requests", median(r.rates), len(r.rates), len(r.capacity))
	p.report("capacity slice rates in run order %.1f", r.rates)
	p.report("metric error_rate %.6f ratio failed=%d attempted=%d", ratio(float64(failed), float64(attempted)), failed, attempted)
	if hot {
		vlat := make([]float64, len(r.verify))
		for i, s := range r.verify {
			vlat[i] = s.latencyMS()
		}
		vsorted := sortedCopy(vlat)
		vq := tailQ(len(vlat), 0.9)
		p.report("metric verify_p50_ms %.4f ms n=%d", quantile(vsorted, 0.5), len(vlat))
		p.report("metric verify_p90_ms %.4f ms n=%d (p%g)", quantile(vsorted, vq), len(vlat), 100*vq)
		vf, _ := countFailures(r.verify)
		p.layer["loadgen.verify_sent"] = float64(len(r.verify))
		p.layer["loadgen.verify_ok"] = float64(len(r.verify) - vf)
		p.layer["loadgen.verify_failed"] = float64(vf)
	}

	l := p.layer
	l["loadgen.translate_sent"] = float64(sent)
	l["loadgen.translate_ok"] = float64(ok)
	l["loadgen.translate_failed"] = float64(sent - ok)
	l["loadgen.late_p99_ms"] = quantile(sortedCopy(lateMS), tailQ(len(lateMS), 0.99))
	l["serve.cache_hit_ratio"] = ratio(float64(hits), float64(sent))
	e.serverSide(r.d)
	for i, s := range r.ref {
		if i < len(refPics) && s.failure == "" {
			p.replay.requests = append(p.replay.requests, replayReq{
				rid: fmt.Sprintf("ref-%d", i), pic: refPics[i], hit: hot, latencyMS: s.latencyMS()})
		}
	}
}
