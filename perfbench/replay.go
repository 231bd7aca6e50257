package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/jobs"
	"tdmagic/internal/lad"
	"tdmagic/internal/monitor"
	"tdmagic/internal/sed"
	"tdmagic/internal/sei"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
	"tdmagic/internal/vcd"
)

// replayCap bounds how many of a pass's requests are replayed.
const replayCap = 300

// timedLayers are the span names whose self times become p50/p99
// per-layer metrics, named <span>_ms.p50 and <span>_ms.p99.
var timedLayers = []string{
	"imgproc.decode_png", "store.hash_image", "store.hash_bytes", "store.get", "store.put",
	"imgproc.binarize", "lad.detect", "sed.detect", "ocr.read", "sei.interpret",
	"core.translate", "core.encode",
	"batch.process_miss", "batch.process_hit",
	"monitor.self",
}

// stageSpan maps a tdmagic_stage_seconds label to the replay span timing
// the same stage.
var stageSpan = map[string]string{
	"binarize": "imgproc.binarize", "lad": "lad.detect", "sed": "sed.detect",
	"ocr": "ocr.read", "sei": "sei.interpret",
}

// replayer re-runs a pass's inputs in-process through each layer's public
// functions, one call per span, as tdserve runs them (IntraWorkers 1).
type replayer struct {
	ctx  context.Context
	pipe *core.Pipeline
	st   *store.Store
	cfg  store.Hash
	tr   *tracer
	work string

	untraced           []float64
	contours, edges    []float64
	texts              []float64
	decodeMBs, checkMB []float64
	allocsPerChange    []float64
	itemOverhead       map[int]float64
	submitMS           []float64
}

// replay runs the traced replay of in, writes its spans to spanPath and
// adds the per-layer metrics, computed from the span file, to layer.
func replay(ctx context.Context, workload string, in replayInput, work, spanPath string, layer map[string]float64) error {
	pipe, err := core.LoadFile(in.model)
	if err != nil {
		return err
	}
	pipe.IntraWorkers = 1
	st, err := store.Open(filepath.Join(work, "replay-store"))
	if err != nil {
		return err
	}
	r := &replayer{ctx: ctx, pipe: pipe, st: st, cfg: pipe.ConfigHash(), tr: newTracer(), work: work,
		itemOverhead: map[int]float64{}}
	if err := r.requests(in.requests); err != nil {
		return err
	}
	if err := r.verify(in.dumps); err != nil {
		return err
	}
	if workload == "serve-cold" {
		if err := r.jobs(in); err != nil {
			return err
		}
	}
	if err := writeSpans(spanPath, r.tr.spans); err != nil {
		return err
	}
	spans, err := readSpans(spanPath)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	for _, name := range timedLayers {
		s := sortedCopy(self[name])
		layer[name+"_ms.p50"] = quantile(s, 0.5)
		layer[name+"_ms.p99"] = quantile(s, tailQ(len(s), 0.99))
	}
	u := sortedCopy(r.untraced)
	layer["serve.untraced_ms.p50"] = quantile(u, 0.5)
	layer["serve.untraced_ms.p99"] = quantile(u, tailQ(len(u), 0.99))
	layer["lad.contours"] = mean(r.contours)
	layer["sed.edge_boxes"] = mean(r.edges)
	layer["ocr.text_boxes"] = mean(r.texts)
	layer["vcd.decode_mb_s"] = median(r.decodeMBs)
	layer["monitor.check_mb_s"] = median(r.checkMB)
	layer["vcd.allocs_per_change"] = median(r.allocsPerChange)
	layer["jobs.submit_ms"] = median(r.submitMS)
	layer["jobs.item_overhead_ms.n64"] = r.itemOverhead[64]
	layer["jobs.item_overhead_ms.n1024"] = r.itemOverhead[1024]
	var server, replayed float64
	for st, name := range stageSpan {
		server += layer["serve.stage_mean_ms."+st]
		replayed += mean(self[name])
	}
	layer["crosscheck.stage_ratio"] = ratio(server, replayed)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// requests replays up to replayCap translate requests, evenly spaced over
// the pass, through the serve read path and, for misses, the pipeline;
// the stages are then replayed one by one under their own root.
func (r *replayer) requests(reqs []replayReq) error {
	step := max(1, len(reqs)/replayCap)
	if reqs != nil && reqs[0].hit {
		// A hot request was answered from the cache tiers: put the
		// artifacts where the replayed store lookup will find them.
		for i := 0; i < len(reqs); i += step {
			img, err := imgproc.DecodePNG(bytes.NewReader(reqs[i].pic.png))
			if err != nil {
				return err
			}
			art := reqs[i].pic.base.artifact
			if err := r.st.Put(r.cfg, store.HashImage(img), art[:len(art)-1]); err != nil {
				return err
			}
		}
	}
	for i := 0; i < len(reqs); i += step {
		if err := r.request(reqs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) request(q replayReq) error {
	tr, rid := r.tr, q.rid
	root := tr.start("serve.request", rid, 0)
	raw := q.pic.png
	tr.do("store.hash_bytes", rid, root, func() { store.HashBytes(raw) })
	var img *imgproc.Gray
	var err error
	layers := tr.do("imgproc.decode_png", rid, root, func() { img, err = imgproc.DecodePNG(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	var key store.Hash
	layers += tr.do("store.hash_image", rid, root, func() { key = store.HashImage(img) })
	var found bool
	layers += tr.do("store.get", rid, root, func() {
		body, ok := r.st.Get(r.cfg, key)
		var a batch.Artifact
		found = ok && json.Unmarshal(body, &a) == nil && a.SPO != nil
	})
	if !found {
		var sp *spo.SPO
		var rep *core.Report
		layers += tr.do("core.translate", rid, root, func() { sp, rep, err = r.pipe.TranslateContext(r.ctx, img) })
		if err != nil {
			return err
		}
		var body []byte
		layers += tr.do("core.encode", rid, root, func() {
			a := batch.Artifact{SPO: sp, Spec: sp.SpecText()}
			if rep != nil {
				a.Diags = rep.Diags
			}
			body, err = json.Marshal(a)
		})
		if err != nil {
			return err
		}
		layers += tr.do("store.put", rid, root, func() { err = r.st.Put(r.cfg, key, body) })
		if err != nil {
			return err
		}
	}
	tr.end(root)
	r.untraced = append(r.untraced, q.latencyMS-float64(layers)/1e6)
	if !found {
		return r.stages(img, rid)
	}
	return nil
}

// stages replays the perception stages and SEI as separate calls, in the
// pipeline's order, and records their per-picture work counts.
func (r *replayer) stages(img *imgproc.Gray, rid string) error {
	tr, p := r.tr, r.pipe
	root := tr.start("core.stages", rid, 0)
	defer tr.end(root)
	var bw *imgproc.Binary
	tr.do("imgproc.binarize", rid, root, func() {
		thr := p.LADCfg.Threshold
		if thr == 0 {
			thr = imgproc.OtsuThresholdW(img, 1)
		}
		bw = imgproc.ThresholdW(img, thr, 1)
	})
	var lines *lad.Result
	var err error
	tr.do("lad.detect", rid, root, func() {
		cfg := p.LADCfg
		cfg.Workers = 1
		lines, err = lad.DetectBinaryCtx(r.ctx, bw, cfg)
	})
	if err != nil {
		return err
	}
	r.contours = append(r.contours, float64(len(lines.V)+len(lines.H)))
	var edges []sed.Detection
	if p.SED != nil {
		tr.do("sed.detect", rid, root, func() { edges, err = p.SED.DetectCtxW(r.ctx, img, lines, 1) })
		if err != nil {
			return err
		}
	}
	r.edges = append(r.edges, float64(len(edges)))
	in := sei.Input{Width: img.W, Height: img.H, Edges: edges, Lines: lines}
	if p.OCR != nil {
		tr.do("ocr.read", rid, root, func() {
			cfg := p.OCRCfg
			cfg.Workers = 1
			in.Texts, err = p.OCR.ReadAllCtx(r.ctx, lines.BW, lines, cfg)
		})
		if err != nil {
			return err
		}
	}
	r.texts = append(r.texts, float64(len(in.Texts)))
	cfg := p.SEICfg
	cfg.Strict = p.Strict
	// SEI's error is the pipeline's semantic verdict on the picture, not
	// a replay failure; only its time matters here.
	tr.do("sei.interpret", rid, root, func() { _, _ = sei.Interpret(in, cfg) })
	return nil
}

// countSink is a no-op vcd.Sink that counts value changes.
type countSink struct{ changes int }

func (c *countSink) Declare(string, bool) int           { return 0 }
func (c *countSink) Change(int, float64, float64) error { c.changes++; return nil }

// verify replays each verification dump three times: the decoder alone
// into a no-op sink, then the decoder driving the streaming monitor.
func (r *replayer) verify(dumps []*verifyReq) error {
	for i, d := range dumps {
		for rep := 0; rep < 3; rep++ {
			rid := fmt.Sprintf("dump-%d.%d", i, rep)
			root := r.tr.start("verify.replay", rid, 0)
			sink := &countSink{}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var err error
			dDec := r.tr.do("vcd.decode", rid, root, func() { err = vcd.NewDecoder(bytes.NewReader(d.dump), sink).Run() })
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			dChk := r.tr.do("monitor.check", rid, root, func() {
				var c *monitor.StreamChecker
				if c, err = monitor.NewStream(d.spec, nil); err == nil {
					if err = vcd.NewDecoder(bytes.NewReader(d.dump), c).Run(); err == nil {
						_, err = c.Finish()
					}
				}
			})
			if err != nil {
				return fmt.Errorf("replay check: %w", err)
			}
			r.tr.end(root)
			// The monitor's own time is the checked run minus the
			// decoder's share, measured by the no-op run just before.
			self := r.tr.start("monitor.self", rid, 0)
			r.tr.spans[self-1].End = r.tr.spans[self-1].Start + int64(dChk-dDec)
			mb := float64(len(d.dump)) / 1e6
			r.decodeMBs = append(r.decodeMBs, mb/dDec.Seconds())
			r.checkMB = append(r.checkMB, mb/dChk.Seconds())
			r.allocsPerChange = append(r.allocsPerChange, ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(sink.changes)))
		}
	}
	return nil
}

// jobs replays the warm-up job and the first timed job item by item
// through batch.Process against a fresh store, in submission order (later
// jobs untimed, until 1,024 items are stored), then times Service.Submit on
// the first timed job and all-hit jobs of 64 and 1,024 items through a
// fresh job service.
func (r *replayer) jobs(in replayInput) error {
	opts := batch.Options{Store: r.st, Config: r.cfg, Timeout: 30 * time.Second}
	process := func(it jobItem, i int, timed bool) error {
		item := batch.Item{Index: i, Name: it.name, Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(it.pic.png)), nil
		}}
		if !timed {
			res := batch.Process(r.ctx, r.pipe, item, opts)
			return res.Err
		}
		id := r.tr.start("batch.process", it.name, 0)
		res := batch.Process(r.ctx, r.pipe, item, opts)
		r.tr.end(id)
		r.tr.spans[id-1].Name = "batch.process_miss"
		if res.Cached {
			r.tr.spans[id-1].Name = "batch.process_hit"
		}
		return res.Err
	}
	for i, it := range in.warmJob {
		if err := process(it, i, false); err != nil {
			return err
		}
	}
	if len(in.jobs) == 0 {
		return fmt.Errorf("no job to replay")
	}
	// The first timed job: its re-sends hit the warm-up job's artifacts.
	job := in.jobs[0]
	for i, it := range job {
		if err := process(it, i, true); err != nil {
			return err
		}
	}
	done := append(append([]jobItem(nil), in.warmJob...), job...)
	// Later jobs, untimed, until 1,024 items have artifacts for the
	// all-hit job.
	for _, later := range in.jobs[1:] {
		if len(done) >= 1024 {
			break
		}
		for i, it := range later {
			if err := process(it, i, false); err != nil {
				return err
			}
		}
		done = append(done, later...)
	}

	svc, err := jobs.Open(filepath.Join(r.work, "replay-jobs"), r.pipe, r.st, jobs.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	run := func(span, rid string, items []jobItem, prefix string) (time.Duration, error) {
		specs := make([]jobs.ItemSpec, len(items))
		for i, it := range items {
			specs[i] = jobs.ItemSpec{Name: prefix + it.name, Data: bytes.NewReader(it.pic.png)}
		}
		var sn jobs.Snapshot
		t0 := time.Now()
		id := r.tr.start(span, rid, 0)
		d := r.tr.do("jobs.submit", rid, id, func() { sn, err = svc.Submit(specs) })
		if err != nil {
			return 0, err
		}
		if span == "jobs.job" {
			r.submitMS = append(r.submitMS, float64(d)/1e6)
		}
		r.tr.do("jobs.wait", rid, id, func() { sn, err = svc.Wait(r.ctx, sn.ID) })
		r.tr.end(id)
		if err != nil {
			return 0, err
		}
		if sn.State != jobs.StateDone {
			return 0, fmt.Errorf("replayed job ended %s", sn.State)
		}
		return time.Since(t0), nil
	}
	// The same job once more under new names, through the job service:
	// Submit's cost at this size, then the all-hit jobs.
	if _, err := run("jobs.job", "job-0", job, "r"); err != nil {
		return err
	}
	for _, n := range []int{64, 1024} {
		if len(done) < n {
			continue
		}
		d, err := run("jobs.all_hit", fmt.Sprintf("hit-%d", n), done[:n], fmt.Sprintf("h%d", n))
		if err != nil {
			return err
		}
		r.itemOverhead[n] = float64(d) / 1e6 / float64(n)
	}
	return nil
}

// removeAll deletes a work directory, reporting failures on stderr only:
// a leftover scratch directory does not change any measurement.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
