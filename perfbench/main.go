// Command perfbench is the repository benchmark: it drives a real tdserve
// child process (model from tdtrain, with -store and -jobs) from one
// load-generator process holding at most two connections, checks every
// response, and prints end-to-end metrics (-trace 0) or per-layer metrics
// from a traced run and an in-process replay of its inputs (-trace 1).
// perfbench/run.sh builds the binaries and runs it from the checkout
// root; see perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"tdmagic/internal/core"
)

// setups is how many times each pass trains a model and starts tdserve;
// setup_s is their median and the last server carries the workload.
const setups = 3

// runDeadline bounds a whole run, build excluded.
const runDeadline = 170 * time.Second

var workloads = map[string]func(*env) error{
	"serve-cold": (*env).serveCold,
	"serve-hot":  (*env).serveHot,
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, in BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"spo_exact_pct", "%"},
}

// layerMetrics are printed by every traced run; a layer the workload does
// not exercise reads 0.
var layerMetrics = []metricDef{
	{"imgproc.decode_png_ms.p50", "ms"},
	{"imgproc.decode_png_ms.p99", "ms"},
	{"store.hash_image_ms.p50", "ms"},
	{"store.hash_image_ms.p99", "ms"},
	{"store.hash_bytes_ms.p50", "ms"},
	{"store.hash_bytes_ms.p99", "ms"},
	{"store.get_ms.p50", "ms"},
	{"store.get_ms.p99", "ms"},
	{"store.put_ms.p50", "ms"},
	{"store.put_ms.p99", "ms"},
	{"store.hit_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.untraced_ms.p50", "ms"},
	{"serve.untraced_ms.p99", "ms"},
	{"serve.rejected", "count"},
	{"imgproc.binarize_ms.p50", "ms"},
	{"imgproc.binarize_ms.p99", "ms"},
	{"lad.detect_ms.p50", "ms"},
	{"lad.detect_ms.p99", "ms"},
	{"sed.detect_ms.p50", "ms"},
	{"sed.detect_ms.p99", "ms"},
	{"ocr.read_ms.p50", "ms"},
	{"ocr.read_ms.p99", "ms"},
	{"sei.interpret_ms.p50", "ms"},
	{"sei.interpret_ms.p99", "ms"},
	{"core.translate_ms.p50", "ms"},
	{"core.translate_ms.p99", "ms"},
	{"core.encode_ms.p50", "ms"},
	{"core.encode_ms.p99", "ms"},
	{"lad.contours", "count"},
	{"sed.edge_boxes", "count"},
	{"ocr.text_boxes", "count"},
	{"batch.process_miss_ms.p50", "ms"},
	{"batch.process_miss_ms.p99", "ms"},
	{"batch.process_hit_ms.p50", "ms"},
	{"batch.process_hit_ms.p99", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.item_overhead_ms.n64", "ms"},
	{"jobs.item_overhead_ms.n1024", "ms"},
	{"vcd.decode_mb_s", "MB/s"},
	{"vcd.allocs_per_change", "count"},
	{"monitor.check_mb_s", "MB/s"},
	{"monitor.self_ms.p50", "ms"},
	{"monitor.self_ms.p99", "ms"},
	{"serve.stage_mean_ms.binarize", "ms"},
	{"serve.stage_mean_ms.lad", "ms"},
	{"serve.stage_mean_ms.sed", "ms"},
	{"serve.stage_mean_ms.ocr", "ms"},
	{"serve.stage_mean_ms.sei", "ms"},
	{"crosscheck.stage_ratio", "ratio"},
	{"loadgen.translate_sent", "count"},
	{"loadgen.translate_ok", "count"},
	{"loadgen.translate_failed", "count"},
	{"loadgen.verify_sent", "count"},
	{"loadgen.verify_ok", "count"},
	{"loadgen.verify_failed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
	{"flight.traces", "count"},
	{"host.steal_pct", "%"},
	{"host.calib_ms", "ms"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	bin      string
	work     string
	out      string
}

func main() {
	workload := flag.String("workload", "", "serve-cold or serve-hot")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "timed phase length in seconds")
	traced := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	build := flag.String("build", ".bench_build", "directory holding bin/ and receiving work and output files")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-cold|serve-hot --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// A run must end within 180 s; fail rather than overrun.
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	o := options{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		bin:  filepath.Join(*build, "bin"),
		work: filepath.Join(*build, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		out:  filepath.Join(*build, "out"),
	}
	if err := run(ctx, o, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, o options, traced bool) error {
	defer func() {
		// Deleting the work files and flushing here keeps their disk
		// traffic out of the next run's measurements.
		removeAll(o.work)
		syscall.Sync()
	}()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base, err := runPass(ctx, o, "untraced", 0)
	if err != nil {
		return err
	}
	passes := []*pass{base}
	metrics := map[string]metric{}
	for _, m := range e2eMetrics {
		metrics[m.name] = metric{base.e2e[m.name], m.unit}
	}
	if traced {
		tp, err := runPass(ctx, o, "traced", 256)
		if err != nil {
			return err
		}
		passes = append(passes, tp)
		tp.layer["trace.overhead_pct"] = 100 * (tp.e2e["p50_ms"] - base.e2e["p50_ms"]) / base.e2e["p50_ms"]
		tp.layer["error_rate"] = ratio(float64(tp.failed), float64(tp.attempted))
		stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err := os.WriteFile(stem+"-flight.json", tp.flightDump, 0o644); err != nil {
			return err
		}
		var fd struct {
			Entries []json.RawMessage `json:"entries"`
			Pinned  []json.RawMessage `json:"pinned"`
		}
		if err := json.Unmarshal(tp.flightDump, &fd); err != nil {
			return fmt.Errorf("decode flight dump: %w", err)
		}
		tp.layer["flight.traces"] = float64(len(fd.Entries) + len(fd.Pinned))
		if err := replay(ctx, o.workload, tp.replay, o.work, stem+"-spans.jsonl", tp.layer); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		metrics = map[string]metric{}
		for _, m := range layerMetrics {
			metrics[m.name] = metric{tp.layer[m.name], m.unit}
		}
	}
	res := result{Correct: true, Metrics: metrics}
	for i, p := range passes {
		fmt.Printf("pass %d %s\n", i, o.workload)
		for _, l := range p.lines {
			fmt.Println(" ", l)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrong > 0 {
			res.Correct = false
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "e2e"
	if traced {
		kind = "layer"
	}
	for _, n := range names {
		fmt.Printf("%s %s %s %.6g %s\n", o.workload, kind, n, metrics[n].Value, metrics[n].Unit)
	}
	if res.Attempted == 0 {
		return errors.New("no operation attempted")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run cut short: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runPass sets tdserve up several times, runs the workload against the
// last server and returns the pass's figures. flight is tdserve's
// flight-recorder capacity (0 turns it off).
func runPass(ctx context.Context, o options, name string, flight int) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
	var srv *server
	dir := filepath.Join(o.work, name)
	for i := 0; i < setups; i++ {
		s, d, err := setUp(ctx, o.bin, dir, flight)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, d.Seconds())
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	p.e2e["setup_s"] = median(p.setup)
	p.report("metric setup_s %.4f s n=%d", p.e2e["setup_s"], len(p.setup))

	model := filepath.Join(dir, "model.gob")
	pipe, err := core.LoadFile(model)
	if err != nil {
		return nil, err
	}
	pipe.IntraWorkers = 1
	pl, err := newPool(pipe, o.seed, 24)
	if err != nil {
		return nil, err
	}
	p.replay.model = model
	if flight > 0 && o.workload == "serve-cold" {
		// The job layers have no workload of their own (see README.md):
		// the traced serve-cold pass replays a job corpus drawn from the
		// same pictures.
		jp := &jobPlanner{pool: pl, rng: rand.New(rand.NewSource(o.seed))}
		p.replay.warmJob = jp.next()
		for range jobReplayJobs {
			p.replay.jobs = append(p.replay.jobs, jp.next())
		}
	}
	e := &env{ctx: ctx, srv: srv, pool: pl, rng: rand.New(rand.NewSource(o.seed)), seconds: o.seconds, p: p}
	if err := workloads[o.workload](e); err != nil {
		return nil, err
	}
	st, err := srv.sample()
	if err != nil {
		return nil, err
	}
	p.e2e["peak_rss_mb"] = float64(st.hwmKB) / 1024
	p.report("metric cpu_ms_per_op %.4f ms", p.e2e["cpu_ms_per_op"])
	p.report("metric peak_rss_mb %.2f MB", p.e2e["peak_rss_mb"])
	p.report("metric spo_exact_pct %.2f %%", p.e2e["spo_exact_pct"])
	if flight > 0 {
		if p.flightDump, err = srv.getFlight(); err != nil {
			return nil, err
		}
	}
	return p, nil
}
