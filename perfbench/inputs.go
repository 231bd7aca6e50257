package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"mime/multipart"
	"sort"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/industrial"
	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
	"tdmagic/internal/tdgen"
	"tdmagic/internal/trace"
	"tdmagic/internal/vcd"
)

// basePic is one picture with ground truth from which request pictures
// are derived, plus what the service must answer for any of them.
type basePic struct {
	tmpl     *pngTemplate
	artifact []byte // expected /v1/translate body, byte for byte
	spec     string
	spoJSON  []byte
	spoVal   *spo.SPO // the artifact's SPO as a client decodes it
	exact    bool     // the artifact's SPO TotalEquals the ground truth
	next     int      // next unused variant index
}

// picture is one request picture: a unique variant of a base.
type picture struct {
	base *basePic
	png  []byte
}

// pool hands out pictures nobody has sent before, drawn from a seeded mix
// of tdgen G1, G2 and G3 diagrams and the 30-TD industrial corpus.
type pool struct {
	bases []*basePic
	rng   *rand.Rand
}

// corpusSeed fixes the base corpus. A run's seed draws its requests from
// the corpus (which base, which variant, in which order, on which
// schedule), so the mix of picture complexity and the share of exactly
// translated pictures stay the same from seed to seed.
const corpusSeed = 1

// newPool generates perMode pictures of each tdgen mode plus the
// industrial corpus and records the expected artifact of each by
// translating it in-process with pipe; seed drives the draws. Pictures the
// service would refuse are left out, so no request is expected to fail.
func newPool(pipe *core.Pipeline, seed int64, perMode int) (*pool, error) {
	var samples []*dataset.Sample
	for i, m := range []tdgen.Mode{tdgen.G1, tdgen.G2, tdgen.G3} {
		ss, err := tdgen.NewSeeded(tdgen.DefaultConfig(m), corpusSeed*7+int64(i)).GenerateN(perMode)
		if err != nil {
			return nil, fmt.Errorf("generate pool: %w", err)
		}
		samples = append(samples, ss...)
	}
	ind, err := industrial.Corpus(corpusSeed)
	if err != nil {
		return nil, fmt.Errorf("industrial corpus: %w", err)
	}
	samples = append(samples, ind...)
	p := &pool{rng: rand.New(rand.NewSource(seed))}
	for _, s := range samples {
		b, ok, err := newBase(pipe, s)
		if err != nil {
			return nil, err
		}
		if ok {
			p.bases = append(p.bases, b)
		}
	}
	if len(p.bases) == 0 {
		return nil, fmt.Errorf("pool: no usable picture")
	}
	return p, nil
}

func newBase(pipe *core.Pipeline, s *dataset.Sample) (*basePic, bool, error) {
	sp, rep, err := pipe.TranslateContext(context.Background(), s.Image)
	if err != nil || core.InputRefused(rep) {
		return nil, false, nil
	}
	a := batch.Artifact{SPO: sp, Spec: sp.SpecText()}
	if rep != nil {
		a.Diags = rep.Diags
	}
	body, err := json.Marshal(a)
	if err != nil {
		return nil, false, fmt.Errorf("encode artifact: %w", err)
	}
	var back batch.Artifact
	if err := json.Unmarshal(body, &back); err != nil {
		return nil, false, fmt.Errorf("decode artifact: %w", err)
	}
	spoJSON, _ := json.Marshal(back.SPO) // round-trips what was just decoded
	tmpl, err := newPNGTemplate(s.Image)
	if err != nil {
		return nil, false, err
	}
	b := &basePic{
		tmpl:     tmpl,
		artifact: append(body, '\n'),
		spec:     a.Spec,
		spoJSON:  spoJSON,
		spoVal:   back.SPO,
		exact:    s.Truth != nil && back.SPO.TotalEqual(s.Truth),
	}
	if _, ok := b.tmpl.variant(0); !ok {
		return nil, false, nil
	}
	return b, true, nil
}

// fresh returns a picture no earlier call returned: a random base's next
// unused variant.
func (p *pool) fresh() picture {
	for {
		b := p.bases[p.rng.Intn(len(p.bases))]
		png, ok := b.tmpl.variant(b.next)
		b.next++
		if ok {
			return picture{base: b, png: png}
		}
	}
}

// zipfSeq returns n indexes in [0, size) with Zipf skew (s = 1.1): a few
// pictures take most requests and the rest form a long tail. A seeded
// permutation decouples popularity from generation order.
func zipfSeq(rng *rand.Rand, size, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(size-1))
	perm := rng.Perm(size)
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// verifyReq is one prepared /v1/verify request and its known verdict.
type verifyReq struct {
	body        []byte
	contentType string
	want        verifySummary
	dump        []byte
	spec        *monitor.Spec
}

// verifySummary is the closing NDJSON line of a verification stream.
type verifySummary struct {
	Type       string          `json:"type"`
	OK         bool            `json:"ok"`
	Violations int             `json:"violations"`
	TraceBytes int64           `json:"trace_bytes"`
	EventTimes json.RawMessage `json:"event_times"`
}

// matches compares a received summary with the expected one; event times
// compare by their canonical JSON encoding.
func (v verifySummary) matches(got verifySummary) bool {
	return v.OK == got.OK && v.Violations == got.Violations &&
		v.TraceBytes == got.TraceBytes && canonJSON(v.EventTimes) == canonJSON(got.EventTimes)
}

func canonJSON(raw json.RawMessage) string {
	var xs []float64
	if err := json.Unmarshal(raw, &xs); err != nil {
		return "!" + string(raw)
	}
	b, _ := json.Marshal(xs) // a float slice always encodes
	return string(b)
}

// verifyDumpBytes is the target size of each verification dump.
const verifyDumpBytes = 1 << 20

// newVerifyReq builds a by-ref verification request for the picture whose
// input hash is ref and whose translated SPO is p: a ≈1 MB digital dump
// that satisfies the spec, or, with violate, misses one delay bound. The
// expected summary comes from vcd.Parse + monitor.Check on the same dump.
func newVerifyReq(ref string, p *spo.SPO, violate bool) (*verifyReq, bool, error) {
	if len(p.Constraints) == 0 {
		return nil, false, nil
	}
	tr, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0)
	if err != nil {
		return nil, false, nil
	}
	c0 := p.Constraints[0]
	if violate {
		sig := tr.Signal(p.Nodes[c0.Dst].Signal)
		if sig == nil || p.Nodes[c0.Src].Signal == p.Nodes[c0.Dst].Signal {
			return nil, false, nil
		}
		for i := range sig.Points {
			sig.Points[i].T += 2
		}
	}
	delays := map[string]monitor.Bounds{}
	for _, c := range p.Constraints {
		if c.Delay != "" {
			delays[c.Delay] = monitor.Bounds{Min: 0.5, Max: 1.5}
		}
	}
	dump, ok := digitalVCD(tr, 16, verifyDumpBytes)
	if !ok {
		return nil, false, nil
	}
	whole, err := vcd.Parse(bytes.NewReader(dump))
	if err != nil {
		return nil, false, fmt.Errorf("parse generated dump: %w", err)
	}
	spec := &monitor.Spec{SPO: p, Delays: delays}
	res, err := monitor.Check(spec, whole)
	if err != nil {
		return nil, false, nil
	}
	times, _ := json.Marshal(res.EventTimes) // a float slice always encodes
	delaysJSON, _ := json.Marshal(map[string]any{"delays": delays})

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		data []byte
	}{{"ref", []byte(ref)}, {"delays", delaysJSON}, {"vcd", dump}} {
		w, err := mw.CreateFormField(part.name)
		if err != nil {
			return nil, false, err
		}
		w.Write(part.data)
	}
	if err := mw.Close(); err != nil {
		return nil, false, err
	}
	return &verifyReq{
		body:        body.Bytes(),
		contentType: mw.FormDataContentType(),
		want: verifySummary{OK: res.OK(), Violations: len(res.Violations),
			TraceBytes: int64(len(dump)), EventTimes: times},
		dump: dump,
		spec: spec,
	}, true, nil
}

// digitalVCD writes tr as 1-bit wires (each sample thresholded at its
// signal's mid level) and pads the dump to about size bytes with pads
// extra 16-bit buses that change throughout, as the other signals of a
// real simulation would. ok is false when a signal name cannot be written.
func digitalVCD(tr *trace.Trace, pads, size int) ([]byte, bool) {
	type change struct {
		tick int64
		sig  int
		val  uint16
	}
	var changes []change
	var tEnd float64
	names := make([]string, 0, len(tr.Signals)+pads)
	for i, s := range tr.Signals {
		if s.Name == "" || bytes.ContainsAny([]byte(s.Name), " \t\r\n") || len(s.Points) == 0 {
			return nil, false
		}
		names = append(names, s.Name)
		lo, hi := s.Points[0].V, s.Points[0].V
		for _, pt := range s.Points {
			lo, hi = min(lo, pt.V), max(hi, pt.V)
			tEnd = max(tEnd, pt.T)
		}
		mid := (lo + hi) / 2
		prev := uint16(2)
		for _, pt := range s.Points {
			lv := uint16(0)
			if hi > lo && pt.V > mid {
				lv = 1
			}
			if lv != prev {
				changes = append(changes, change{int64(pt.T*1e6 + 0.5), i, lv})
				prev = lv
			}
		}
	}
	nSpec := len(names)
	for p := 0; p < pads; p++ {
		names = append(names, fmt.Sprintf("bus%d", p))
	}
	ids := make([]string, len(names))
	for i := range names {
		ids[i] = vcdID(i)
	}
	// Each padding step advances time and changes one bus, round robin:
	// ≈30 bytes per value change.
	rng := rand.New(rand.NewSource(int64(len(changes))))
	steps := size / (29 + len(ids[len(ids)-1]))
	span := int64(tEnd*1e6*1.5) + int64(steps)
	for j := 0; j < steps; j++ {
		tick := span * int64(j) / int64(steps)
		changes = append(changes, change{tick, nSpec + j%pads, uint16(rng.Intn(1 << 16))})
	}
	sort.SliceStable(changes, func(a, b int) bool { return changes[a].tick < changes[b].tick })

	var out bytes.Buffer
	out.WriteString("$timescale 1us $end\n")
	for i, n := range names {
		width := 1
		if i >= nSpec {
			width = 16
		}
		fmt.Fprintf(&out, "$var wire %d %s %s $end\n", width, ids[i], n)
	}
	out.WriteString("$enddefinitions $end\n")
	tick := int64(-1)
	for _, c := range changes {
		if c.tick != tick {
			fmt.Fprintf(&out, "#%d\n", c.tick)
			tick = c.tick
		}
		if c.sig < nSpec {
			out.WriteByte('0' + byte(c.val))
		} else {
			fmt.Fprintf(&out, "b%016b ", c.val)
		}
		out.WriteString(ids[c.sig])
		out.WriteByte('\n')
	}
	return out.Bytes(), true
}

// vcdID returns a short printable VCD identifier code for index i.
func vcdID(i int) string {
	const alphabet = "!%&'()*+,-./:;<=>?@[]^_`{|}~ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	var b []byte
	for {
		b = append(b, alphabet[i%len(alphabet)])
		i /= len(alphabet)
		if i == 0 {
			return string(b)
		}
		i--
	}
}

// inputHash is the content address tdserve reports in X-Input-Hash.
func inputHash(png []byte) (string, error) {
	img, err := imgproc.DecodePNG(bytes.NewReader(png))
	if err != nil {
		return "", err
	}
	return store.HashImage(img).Hex(), nil
}

// jobItem is one picture of a job submission.
type jobItem struct {
	name string
	pic  picture
}

// jobPlanner produces the job submissions the traced serve-cold run
// replays: each job carries jobNew pictures never sent before plus a
// re-send, under new names, of the previous job's new pictures, in seeded
// order.
type jobPlanner struct {
	pool *pool
	rng  *rand.Rand
	prev []picture
	n    int
}

// jobNew is the number of new pictures per job. The first job holds
// jobNew items and each later one 2·jobNew, so jobReplayJobs jobs after it
// store the 1,024 items the all-hit job needs.
const (
	jobNew        = 128
	jobReplayJobs = 4
)

func (jp *jobPlanner) next() []jobItem {
	items := make([]jobItem, 0, jobNew+len(jp.prev))
	fresh := make([]picture, jobNew)
	for i := range fresh {
		fresh[i] = jp.pool.fresh()
	}
	for _, p := range append(fresh, jp.prev...) {
		items = append(items, jobItem{pic: p})
	}
	jp.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		items[i].name = fmt.Sprintf("j%d-%04d", jp.n, i)
	}
	jp.prev = fresh
	jp.n++
	return items
}
