package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/diag"
	"tdmagic/internal/store"
	"tdmagic/internal/tdgen"
)

// Shared tiny pipeline + samples, trained once per test binary.
var (
	fixtureOnce sync.Once
	fixturePipe *core.Pipeline
	fixtureVal  []*dataset.Sample
	fixtureErr  error
)

func fixture(t *testing.T) (*core.Pipeline, []*dataset.Sample) {
	t.Helper()
	fixtureOnce.Do(func() {
		gt := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(100)))
		train, err := gt.GenerateN(40)
		if err != nil {
			fixtureErr = err
			return
		}
		fixturePipe, fixtureErr = core.Train(rand.New(rand.NewSource(1)), train, core.DefaultTrainConfig())
		if fixtureErr != nil {
			return
		}
		g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(300)))
		fixtureVal, fixtureErr = g.GenerateN(6)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixturePipe, fixtureVal
}

// pngBytes encodes a sample picture.
func pngBytes(t *testing.T, s *dataset.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Image.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	pipe, _ := fixture(t)
	// The pipeline is shared across tests but each Server wires its own
	// registry; reset so this server starts from a clean metric bundle.
	pipe.Metrics = nil
	s := New(pipe, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postPNG(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTranslateCacheHit pins the cache contract: the second identical
// upload is answered from the content cache with a byte-identical body,
// and the hit/miss counters account for both requests.
func TestTranslateCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	resp1 := postPNG(t, ts.URL, png)
	body1 := readBody(t, resp1)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var tr TranslateResponse
	if err := json.Unmarshal(body1, &tr); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if tr.SPO == nil || tr.Spec == "" {
		t.Errorf("response missing spo/spec: %s", body1)
	}

	// Re-encode through a different PNG writer path: same pixels, so the
	// content hash must still hit.
	resp2 := postPNG(t, ts.URL, png)
	body2 := readBody(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body is not byte-identical to the first response")
	}
	if hits, misses := s.cacheHits.Value(), s.cacheMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestPersistentStoreSurvivesRestart pins the second cache level: a
// translation written through to the artifact store is answered from it by
// a fresh server process (empty LRU) with a byte-identical body.
func TestPersistentStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	resp1 := postPNG(t, ts1.URL, png)
	body1 := readBody(t, resp1)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if puts := s1.storePuts.Value(); puts != 1 {
		t.Errorf("store puts = %d, want 1", puts)
	}

	// "Restart": a new Server over a reopened store, with its own empty LRU.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	resp2 := postPNG(t, ts2.URL, png)
	body2 := readBody(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("restarted X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("store hit body is not byte-identical to the original response")
	}
	if hits := s2.storeHits.Value(); hits != 1 {
		t.Errorf("store hits = %d, want 1", hits)
	}
	// The hit was promoted into the LRU, so a third request never touches disk.
	resp3 := postPNG(t, ts2.URL, png)
	readBody(t, resp3)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("third X-Cache = %q, want hit", got)
	}
	if hits := s2.storeHits.Value(); hits != 1 {
		t.Errorf("store hits after LRU promotion = %d, want still 1", hits)
	}
}

// TestQueueOverflow429 fills the single worker slot and the one-deep wait
// queue, then asserts the next request is shed with 429 + Retry-After
// while the admitted requests still complete.
func TestQueueOverflow429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	_, val := fixture(t)

	started := make(chan struct{}, 4)
	block := make(chan struct{})
	translateHook = func() {
		started <- struct{}{}
		<-block
	}
	defer func() { translateHook = nil }()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func(i int) {
		resp := postPNG(t, ts.URL, pngBytes(t, val[i]))
		results <- result{resp.StatusCode, readBody(t, resp)}
	}

	go post(0)
	<-started // worker slot occupied

	go post(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is full: this one must be rejected immediately.
	resp := postPNG(t, ts.URL, pngBytes(t, val[2]))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body not an error payload: %s", body)
	}
	if s.rejections.Value() != 1 {
		t.Errorf("rejections = %d, want 1", s.rejections.Value())
	}

	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("admitted request finished with %d: %s", r.status, r.body)
		}
	}
}

// TestGracefulDrain starts a real listener, parks a request inside a
// worker, and shuts down: Shutdown must wait for the in-flight request,
// which must complete successfully, and the listener must then be closed.
func TestGracefulDrain(t *testing.T) {
	pipe, val := fixture(t)
	pipe.Metrics = nil
	s := New(pipe, Config{Workers: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String()

	started := make(chan struct{}, 1)
	block := make(chan struct{})
	translateHook = func() {
		started <- struct{}{}
		<-block
	}
	defer func() { translateHook = nil }()

	type result struct {
		status int
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(pngBytes(t, val[0])))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- result{status: resp.StatusCode}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the request is still translating.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(block)
	if r := <-reqDone; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status=%d err=%v", r.status, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(pngBytes(t, val[1]))); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// fakePNG builds a syntactically plausible PNG prefix declaring the given
// dimensions (signature + IHDR), enough to exercise the header screen.
func fakePNG(w, h uint32) []byte {
	buf := make([]byte, 0, 33)
	buf = append(buf, 0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n')
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:4], w)
	binary.BigEndian.PutUint32(ihdr[4:8], h)
	ihdr[8] = 8 // bit depth
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], 13)
	buf = append(buf, lenb[:]...)
	buf = append(buf, []byte("IHDR")...)
	buf = append(buf, ihdr...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(append([]byte("IHDR"), ihdr...)))
	buf = append(buf, crc[:]...)
	return buf
}

// TestBadInputs400 pins the client-error contract: malformed bodies,
// oversized bodies, pixel bombs and degenerate pictures all return 400
// with a diag-style JSON payload — never a 500.
func TestBadInputs400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20})

	checkError := func(t *testing.T, resp *http.Response, wantStage string) {
		t.Helper()
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error payload not JSON: %v: %s", err, body)
		}
		if er.Error == "" {
			t.Errorf("empty error message: %s", body)
		}
		if wantStage != "" {
			if len(er.Diags) == 0 || er.Diags[0].Stage != wantStage || er.Diags[0].Severity != diag.Error {
				t.Errorf("missing %s-stage error diagnostic: %s", wantStage, body)
			}
		}
	}

	t.Run("garbage", func(t *testing.T) {
		checkError(t, postPNG(t, ts.URL, []byte("not a png at all")), diag.StageInput)
	})
	t.Run("truncated", func(t *testing.T) {
		checkError(t, postPNG(t, ts.URL, fakePNG(100, 100)), diag.StageInput)
	})
	t.Run("pixel-bomb", func(t *testing.T) {
		// 1 GB declared raster in a tiny body: refused from the header.
		checkError(t, postPNG(t, ts.URL, fakePNG(1<<15, 1<<15)), diag.StageInput)
	})
	t.Run("oversized-body", func(t *testing.T) {
		big := make([]byte, 1<<20+1)
		copy(big, fakePNG(64, 64))
		checkError(t, postPNG(t, ts.URL, big), diag.StageInput)
	})
	t.Run("degenerate-picture", func(t *testing.T) {
		// A real 2x2 PNG decodes fine but the pipeline refuses it; that
		// must surface as 400, not 500 or an empty 200.
		var buf bytes.Buffer
		tiny := fixtureVal[0].Image.Crop(fixtureVal[0].Image.Bounds())
		tiny = tiny.ScaleTo(2, 2)
		if err := tiny.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		checkError(t, postPNG(t, ts.URL, buf.Bytes()), diag.StageInput)
	})
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/translate")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET = %d, want 405", resp.StatusCode)
		}
		readBody(t, resp)
	})
	if s.badRequests.Value() == 0 {
		t.Error("bad-request counter never moved")
	}
}

// TestBatchEndpoint posts a multipart batch mixing a valid picture, a
// duplicate (cache hit) and a malformed part, and checks the per-item
// results keep part order and per-item statuses.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, val := fixture(t)
	png0 := pngBytes(t, val[0])

	buildBatch := func(parts map[string][]byte, order []string) (*bytes.Buffer, string) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, name := range order {
			fw, err := mw.CreateFormFile(name, name+".png")
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(parts[name])
		}
		mw.Close()
		return &buf, mw.FormDataContentType()
	}

	body, ctype := buildBatch(map[string][]byte{
		"a": png0,
		"b": []byte("garbage"),
		"c": pngBytes(t, val[1]),
	}, []string{"a", "b", "c"})
	resp, err := http.Post(ts.URL+"/v1/translate/batch", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []ItemResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Status != http.StatusOK || out.Results[0].TranslateResponse == nil || out.Results[0].SPO == nil {
		t.Errorf("item a: %+v", out.Results[0])
	}
	if out.Results[1].Status != http.StatusBadRequest || out.Results[1].Error == "" {
		t.Errorf("item b: %+v", out.Results[1])
	}
	if out.Results[2].Status != http.StatusOK {
		t.Errorf("item c: %+v", out.Results[2])
	}
	if out.Results[0].Name != "a.png" || out.Results[1].Name != "b.png" {
		t.Errorf("part order/names wrong: %q %q", out.Results[0].Name, out.Results[1].Name)
	}

	// Same picture again: answered from the cache.
	body, ctype = buildBatch(map[string][]byte{"a": png0}, []string{"a"})
	resp, err = http.Post(ts.URL+"/v1/translate/batch", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw = readBody(t, resp)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !out.Results[0].Cached {
		t.Errorf("repeat batch item not cached: %s", raw)
	}
}

// TestHealthzAndMetrics checks the liveness probe and that one scrape
// carries both the serve-level and the pipeline-level counters.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, val := fixture(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, hb)
	}

	readBody(t, postPNG(t, ts.URL, pngBytes(t, val[0])))

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := string(readBody(t, resp))
	for _, want := range []string{
		"tdserve_requests_total 1",
		"tdserve_cache_misses_total 1",
		"tdmagic_translations_total 1",
		"tdmagic_translate_seconds_bucket",
		"# TYPE tdserve_queued_requests gauge",
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestLRUCacheEviction exercises the cache directly: capacity bounds,
// recency order, disabled mode.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(i byte) store.Hash { var key store.Hash; key[0] = i; return key }
	c.put(k(1), []byte("one"))
	c.put(k(2), []byte("two"))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	c.put(k(3), []byte("three")) // evicts k2 (least recently used)
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 not evicted")
	}
	if b, ok := c.get(k(1)); !ok || string(b) != "one" {
		t.Error("k1 lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	d := newLRUCache(-1)
	d.put(k(9), []byte("x"))
	if _, ok := d.get(k(9)); ok {
		t.Error("disabled cache stored an entry")
	}
}

// TestConcurrentMixedTraffic hammers the service with concurrent repeat
// and unique requests; run under -race this doubles as the data-race check
// on the cache, the pool and the shared pipeline.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	_, val := fixture(t)
	pngs := make([][]byte, len(val))
	for i := range val {
		pngs[i] = pngBytes(t, val[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, err := http.Post(ts.URL+"/v1/translate", "image/png",
					bytes.NewReader(pngs[(g+i)%len(pngs)]))
				if err != nil {
					errs <- err.Error()
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSEDPanicAnswers500 injects a panic into the concurrent SED stage:
// the request is answered 500 and the process keeps serving.
func TestSEDPanicAnswers500(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	_, val := fixture(t)
	body := pngBytes(t, val[0])

	core.SEDFaultHook = func() { panic("injected sed fault") }
	resp := postPNG(t, ts.URL, body)
	got := readBody(t, resp)
	core.SEDFaultHook = nil
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("SED panic answered %d %s, want 500", resp.StatusCode, got)
	}

	resp = postPNG(t, ts.URL, body)
	got = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panic: %d %s, want 200", resp.StatusCode, got)
	}
}
