package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/adler32"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tdmagic/internal/imgproc"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Fatalf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 = %v, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Fatalf("beyond(1000, p99) = %d, want 10", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {39, 0.5},
	} {
		if got := tailQ(c.n, 0.99); got != c.want {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQ(c.n, 0.99); q > 0.5 && beyond(c.n, q) < minBeyond {
			t.Errorf("tailQ(%d) = %v leaves %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
	if got := tailQ(100000, 0.9); got != 0.9 {
		t.Errorf("tailQ caps at the requested percentile: got %v", got)
	}
}

func TestSliceRate(t *testing.T) {
	ms := time.Millisecond
	ss := []sample{{done: 300 * ms}, {done: 1250 * ms}, {done: 700 * ms}, {done: 1000 * ms}, {done: 900 * ms}}
	if got := sliceRate(ss); math.Abs(got-4) > 1e-9 {
		t.Fatalf("sliceRate = %v, want 4 (5 requests in 1.25 s)", got)
	}
	if got := sliceRate(nil); got != 0 {
		t.Fatalf("sliceRate of an empty slice = %v, want 0", got)
	}
}

func TestClosedLoopKeepsClientsBusy(t *testing.T) {
	clients := []*http.Client{newClient(time.Second), newClient(time.Second)}
	var built []int
	ss := closedLoop(context.Background(), clients, 100*time.Millisecond, func(i int) func(*http.Client) outcome {
		built = append(built, i)
		return func(*http.Client) outcome {
			time.Sleep(10 * time.Millisecond)
			return outcome{}
		}
	})
	// Two clients, 10 ms each, for 100 ms: about 20 requests.
	if len(ss) < 12 || len(ss) > 24 {
		t.Fatalf("%d requests in 100 ms on two 10 ms clients", len(ss))
	}
	for i, b := range built {
		if b != i {
			t.Fatalf("request %d built as %d", i, b)
		}
	}
	if len(built) != len(ss) {
		t.Fatalf("built %d requests, sent %d", len(built), len(ss))
	}
}

func TestBacklogDetection(t *testing.T) {
	n := 300
	sched := make([]time.Duration, n)
	flat := make([]time.Duration, n)
	growing := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * 5 * time.Millisecond // 200/s over 1.5 s
		flat[i] = time.Duration(i%7) * 300 * time.Microsecond
		// Capacity 10% below the rate: lateness grows 0.1 s per second.
		growing[i] = sched[i] / 10
	}
	if backlogGrowing(sched, flat) {
		t.Error("flat lateness reported as a growing backlog")
	}
	if !backlogGrowing(sched, growing) {
		t.Error("linearly growing lateness not detected")
	}
	// A single stall early on, then recovery, is not a growing backlog.
	stall := append([]time.Duration(nil), flat...)
	for i := 10; i < 40; i++ {
		stall[i] = 50 * time.Millisecond
	}
	if backlogGrowing(sched, stall) {
		t.Error("recovered stall reported as a growing backlog")
	}
}

func TestSelfTimesFromSpanFile(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", RequestID: "r1", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "a", RequestID: "r1", Start: 10e6, End: 30e6},
		{ID: 3, Parent: 1, Name: "b", RequestID: "r1", Start: 20e6, End: 50e6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", RequestID: "r1", Start: 90e6, End: 120e6}, // runs past the root
		{ID: 5, Parent: 3, Name: "leaf", RequestID: "r1", Start: 25e6, End: 35e6},
		{ID: 6, Name: "root", RequestID: "r2", Start: 200e6, End: 210e6},
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(back)
	want := map[string][]float64{
		"root": {100 - 40 - 10, 10}, // children cover [10,50] and [90,100]
		"a":    {20},
		"b":    {20},
		"c":    {30},
		"leaf": {10},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("%s[%d] self = %v ms, want %v", name, i, got[i], w[i])
			}
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", "r", 0)
	tr.do("child", "r", root, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := selfTimes(tr.spans)
	if self["child"][0] < 2 || self["root"][0] < 0 || self["root"][0] > self["child"][0] {
		t.Fatalf("self times %v", self)
	}
}

func TestPNGVariantsDecodeToTheirPixels(t *testing.T) {
	img := imgproc.NewGray(97, 41)
	for y := 10; y < 30; y++ {
		for x := 5; x < 90; x += 3 {
			img.Pix[y*img.W+x] = 0
		}
	}
	tmpl, err := newPNGTemplate(img)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for k := 0; k < 3*img.W; k++ {
		data, ok := tmpl.variant(k)
		if !ok {
			t.Fatalf("variant %d refused", k)
		}
		got, err := imgproc.DecodePNG(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("variant %d: %v", k, err)
		}
		if !bytes.Equal(got.Pix[img.W:], img.Pix[img.W:]) {
			t.Fatalf("variant %d changed rows below the first", k)
		}
		diff := 0
		for x := 0; x < img.W; x++ {
			if d := int(img.Pix[x]) - int(got.Pix[x]); d != 0 {
				diff++
				if d < 1 || got.Pix[x] < 242 {
					t.Fatalf("variant %d: pixel %d went %d -> %d", k, x, img.Pix[x], got.Pix[x])
				}
			}
		}
		if diff != 1 {
			t.Fatalf("variant %d changed %d pixels, want 1", k, diff)
		}
		if seen[string(got.Pix[:img.W])] {
			t.Fatalf("variant %d repeats an earlier picture", k)
		}
		seen[string(got.Pix[:img.W])] = true
	}
}

func TestAdler32Combine(t *testing.T) {
	a, b := []byte("timing diagram "), bytes.Repeat([]byte{0xff, 0x01, 0x80}, 70000)
	got := adler32Combine(adler32.Checksum(a), adler32.Checksum(b), len(b))
	if want := adler32.Checksum(append(append([]byte(nil), a...), b...)); got != want {
		t.Fatalf("combine = %08x, want %08x", got, want)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics the program prints
// in step with the contract file at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", e2eMetrics, b.EndToEnd)
	check("per_layer", layerMetrics, b.PerLayer)
	if !slices.Equal(timedLayerNames(), layerNamesWithSuffix("_ms.p50")) {
		t.Errorf("timed layers %v do not match the per-layer p50 metrics %v", timedLayerNames(), layerNamesWithSuffix("_ms.p50"))
	}
}

func timedLayerNames() []string {
	var out []string
	for _, l := range timedLayers {
		out = append(out, l+"_ms.p50")
	}
	slices.Sort(out)
	return out
}

func layerNamesWithSuffix(suf string) []string {
	var out []string
	for _, m := range layerMetrics {
		if strings.HasSuffix(m.name, suf) && m.name != "serve.untraced_ms.p50" {
			out = append(out, m.name)
		}
	}
	slices.Sort(out)
	return out
}
