// Package ocr implements the paper's OCR module: text detection (finding
// the annotation text boxes in a timing-diagram picture) and text
// recognition (reading each box back into the rich-markup string it was
// typeset from, subscripts included).
//
// The paper trains PaddleOCR's detector and recogniser on synthetic L-TD-G
// crops. This implementation keeps the same contract with a template-based
// recogniser: glyph templates start from the built-in font (the prior) and
// are refined from labelled synthetic crops by Train, so recognition
// quality genuinely depends on the training data. Subscript markup
// ("t_{D(on)}") is reconstructed geometrically from glyph size and baseline
// offset, the same cues a human reader uses.
package ocr

import (
	"context"
	"sort"
	"strings"
	"sync"

	"tdmagic/internal/dataset"
	"tdmagic/internal/font"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
)

// Grid dimensions of the normalised glyph representation.
const (
	gridW = 10
	gridH = 14
)

// Template is the learned appearance of one character.
type Template struct {
	Grid   []float64 // gridW×gridH mean occupancy of the tight glyph box
	Aspect float64   // tight-box width / height
	Count  int       // number of training crops merged in
}

// Model is a trained glyph recogniser.
type Model struct {
	Templates map[rune]*Template

	// grids pools the occupancy-grid buffer reused across the glyphs of a
	// recognition call, keeping the classifier inner loop allocation-light
	// even under concurrent batch translation.
	grids sync.Pool
}

func (m *Model) getGrid() []float64 {
	if g, ok := m.grids.Get().(*[]float64); ok {
		return *g
	}
	return make([]float64, gridW*gridH)
}

func (m *Model) putGrid(g []float64) { m.grids.Put(&g) }

// Charset returns the characters the model can emit.
func (m *Model) Charset() []rune {
	out := make([]rune, 0, len(m.Templates))
	for r := range m.Templates {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// charset is the vocabulary of datasheet annotations.
const charset = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789%()/"

// NewFontModel builds the prior model by rendering every charset glyph from
// the built-in font.
func NewFontModel() *Model {
	m := &Model{Templates: make(map[rune]*Template)}
	for _, ch := range charset {
		b := imgproc.NewBinary(font.GlyphW*4, font.GlyphH*4)
		font.DrawGlyph(func(x, y int) { b.Set(x, y, true) }, 0, 0, ch, 4)
		box := inkBox(b, b.Bounds())
		if box.Empty() {
			continue
		}
		m.Templates[ch] = &Template{
			Grid:   sampleGrid(b, box),
			Aspect: float64(box.W()) / float64(box.H()),
			Count:  1,
		}
	}
	return m
}

// inkBox returns the tight bounding box of ink within r.
func inkBox(bw *imgproc.Binary, r geom.Rect) geom.Rect {
	r = r.Clip(bw.Bounds())
	out := geom.Rect{X0: r.X1 + 1, Y0: r.Y1 + 1, X1: r.X0 - 1, Y1: r.Y0 - 1}
	for y := r.Y0; y <= r.Y1; y++ {
		if first, last, ok := bw.RowSpan(y, r.X0, r.X1); ok {
			out = out.Union(geom.Rect{X0: first, Y0: y, X1: last, Y1: y})
		}
	}
	return out
}

// sampleGrid resamples the ink of box into a gridW×gridH occupancy grid.
func sampleGrid(bw *imgproc.Binary, box geom.Rect) []float64 {
	return sampleGridInto(make([]float64, gridW*gridH), bw, box)
}

// sampleGridInto is sampleGrid writing into g (length gridW*gridH), the
// buffer-reusing variant of the recognition hot path.
func sampleGridInto(g []float64, bw *imgproc.Binary, box geom.Rect) []float64 {
	w, h := box.W(), box.H()
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			x0 := box.X0 + gx*w/gridW
			x1 := box.X0 + (gx+1)*w/gridW - 1
			y0 := box.Y0 + gy*h/gridH
			y1 := box.Y0 + (gy+1)*h/gridH - 1
			if x1 < x0 {
				x1 = x0
			}
			if y1 < y0 {
				y1 = y0
			}
			// tot is the unclipped cell area: out-of-image pixels count
			// toward the denominator but never hold ink, exactly like the
			// per-pixel probe whose At() is false out of bounds.
			n := bw.CountRect(geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1})
			tot := (x1 - x0 + 1) * (y1 - y0 + 1)
			g[gy*gridW+gx] = float64(n) / float64(tot)
		}
	}
	return g
}

// segmentBoxes splits the ink inside a text box into per-character tight
// boxes using the column projection: runs of inked columns separated by
// blank columns.
func segmentBoxes(bw *imgproc.Binary, box geom.Rect) []geom.Rect {
	box = box.Clip(bw.Bounds())
	if box.Empty() {
		return nil
	}
	// OR every row of the box word-wise, then read the column occupancy out
	// of the accumulated words.
	acc := make([]uint64, bw.Stride)
	for y := box.Y0; y <= box.Y1; y++ {
		row := bw.Row(y)
		for j := range acc {
			acc[j] |= row[j]
		}
	}
	colInk := make([]bool, box.W())
	for x := box.X0; x <= box.X1; x++ {
		colInk[x-box.X0] = acc[x>>6]>>(uint(x)&63)&1 != 0
	}
	var boxes []geom.Rect
	start := -1
	for i := 0; i <= len(colInk); i++ {
		inked := i < len(colInk) && colInk[i]
		if inked && start < 0 {
			start = i
		} else if !inked && start >= 0 {
			sub := geom.Rect{X0: box.X0 + start, Y0: box.Y0, X1: box.X0 + i - 1, Y1: box.Y1}
			tight := inkBox(bw, sub)
			if !tight.Empty() {
				boxes = append(boxes, tight)
			}
			start = -1
		}
	}
	return boxes
}

// classifyGrid returns the best-matching character for an occupancy grid
// with the given aspect ratio, and a confidence in (0, 1] (1 = perfect
// template match).
func (m *Model) classifyGrid(grid []float64, aspect float64) (rune, float64) {
	best := rune(0)
	bestDist := 1e18
	for ch, t := range m.Templates {
		ar := aspect / t.Aspect
		if ar < 1 {
			ar = 1 / ar
		}
		pen := 0.35 * (ar - 1) // aspect mismatch penalty
		if pen > bestDist {
			// The distance term is non-negative, so this template cannot
			// win or tie; skipping it never changes the result.
			continue
		}
		d, ok := gridDistBounded(grid, t.Grid, pen, bestDist)
		if !ok {
			continue
		}
		// Break exact ties by rune so the winner does not depend on map
		// iteration order: degraded glyphs (empty or shattered grids)
		// routinely tie several templates, and the result must be
		// deterministic run to run.
		if d < bestDist || (d == bestDist && (best == 0 || ch < best)) {
			bestDist = d
			best = ch
		}
	}
	conf := 1 / (1 + bestDist*2.2)
	return best, conf
}

func gridDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(a))
}

// gridDistBounded computes gridDist(a, b) + pen, aborting early (ok=false)
// once the partial distance provably exceeds limit. The partial sum is
// monotone and the final comparison uses the same arithmetic as the caller,
// so an abort can only happen when the full distance would lose strictly —
// ties are never dropped and the classification result is bit-identical to
// the unbounded scan.
func gridDistBounded(a, b []float64, pen, limit float64) (float64, bool) {
	n := float64(len(a))
	s := 0.0
	for i := 0; i < len(a); {
		e := i + 32
		if e > len(a) {
			e = len(a)
		}
		for ; i < e; i++ {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			s += d
		}
		if e < len(a) && s/n+pen > limit {
			return 0, false
		}
	}
	return s/n + pen, true
}

// Result is one recognised text box.
type Result struct {
	Box  geom.Rect
	Text string
	Conf float64
}

// readGlyph is one recognised character with its confidence and geometry.
type readGlyph struct {
	ch   rune
	conf float64
	box  geom.Rect
}

// readGlyphs segments and classifies every glyph in a text box. One pooled
// grid buffer serves all glyphs of the call, so the classifier loop does
// not allocate per character.
func (m *Model) readGlyphs(bw *imgproc.Binary, box geom.Rect) []readGlyph {
	boxes := segmentBoxes(bw, box)
	if len(boxes) == 0 {
		return nil
	}
	grid := m.getGrid()
	defer m.putGrid(grid)
	out := make([]readGlyph, 0, len(boxes))
	for _, gb := range boxes {
		sampleGridInto(grid, bw, gb)
		ch, conf := m.classifyGrid(grid, float64(gb.W())/float64(gb.H()))
		out = append(out, readGlyph{ch: ch, conf: conf, box: gb})
	}
	return out
}

// assemble reconstructs the rich string of a glyph sequence, inferring
// subscript markup from glyph size and baseline offset, and returns the
// mean confidence.
func assemble(glyphs []readGlyph) (string, float64) {
	if len(glyphs) == 0 {
		return "", 0
	}
	lineTop, lineBot := glyphs[0].box.Y0, glyphs[0].box.Y1
	for _, g := range glyphs {
		if g.box.Y0 < lineTop {
			lineTop = g.box.Y0
		}
		if g.box.Y1 > lineBot {
			lineBot = g.box.Y1
		}
	}
	lineH := lineBot - lineTop + 1
	var b strings.Builder
	inSub := false
	total := 0.0
	for _, g := range glyphs {
		total += g.conf
		topOff := float64(g.box.Y0-lineTop) / float64(lineH)
		relH := float64(g.box.H()) / float64(lineH)
		sub := topOff > 0.34 && relH < 0.72
		switch {
		case sub && !inSub:
			b.WriteString("_{")
			inSub = true
		case !sub && inSub:
			b.WriteString("}")
			inSub = false
		}
		b.WriteRune(g.ch)
	}
	if inSub {
		b.WriteString("}")
	}
	return b.String(), total / float64(len(glyphs))
}

// RecognizeLine reads the text inside box, reconstructing subscript markup
// from glyph geometry. It returns the rich string and the mean glyph
// confidence.
func (m *Model) RecognizeLine(bw *imgproc.Binary, box geom.Rect) (string, float64) {
	return assemble(m.readGlyphs(bw, box))
}

// Train refines the model's templates from labelled synthetic samples: each
// ground-truth text box is segmented, and when the glyph count matches the
// markup's character count the observed grids are merged into the
// corresponding templates (the same alignment trick CTC-style recognisers
// exploit, applicable here because the typesetting is known).
//
// bws optionally carries the samples' pre-binarised images (parallel to
// samples), sharing one Otsu pass with the other training stages; nil
// binarises internally.
func (m *Model) Train(samples []*dataset.Sample, bws []*imgproc.Binary) int {
	aligned := 0
	grid := m.getGrid()
	defer m.putGrid(grid)
	for si, s := range samples {
		bw := (*imgproc.Binary)(nil)
		if bws != nil {
			bw = bws[si]
		}
		if bw == nil {
			bw = imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
		}
		for _, tb := range s.Texts {
			chars := plainChars(tb.Text)
			boxes := segmentBoxes(bw, tb.Box)
			if len(chars) == 0 || len(boxes) != len(chars) {
				continue
			}
			aligned++
			for i, gb := range boxes {
				sampleGridInto(grid, bw, gb)
				aspect := float64(gb.W()) / float64(gb.H())
				ch := chars[i]
				t := m.Templates[ch]
				if t == nil {
					t = &Template{Grid: make([]float64, gridW*gridH), Aspect: aspect}
					m.Templates[ch] = t
				}
				n := float64(t.Count)
				for j := range t.Grid {
					t.Grid[j] = (t.Grid[j]*n + grid[j]) / (n + 1)
				}
				t.Aspect = (t.Aspect*n + aspect) / (n + 1)
				t.Count++
			}
		}
	}
	return aligned
}

// plainChars strips the subscript markup of a rich string, returning the
// visible characters in order.
func plainChars(s string) []rune {
	var out []rune
	for _, sp := range font.ParseRich(s) {
		out = append(out, []rune(sp.Text)...)
	}
	return out
}

// DetectConfig controls text-region detection.
type DetectConfig struct {
	// MaxGlyphH / MinGlyphH bound plausible glyph heights in pixels.
	MinGlyphH, MaxGlyphH int
	// JoinDX is the horizontal gap within which neighbouring glyph
	// components are clustered into one line.
	JoinDX int
	// MinConf drops clusters whose recognition confidence is below this
	// (arrow heads and stroke leftovers match no template well).
	MinConf float64
	// Workers tiles the component labelling inside one picture: 0 or 1
	// runs sequentially, < 0 uses every core. The detected boxes are
	// bit-identical for any value.
	Workers int
}

// DefaultDetectConfig returns parameters for the generated pictures.
func DefaultDetectConfig() DetectConfig {
	return DetectConfig{MinGlyphH: 4, MaxGlyphH: 40, JoinDX: 9, MinConf: 0.42}
}

// DetectRegions finds candidate text boxes: ink components that remain
// after removing line structure, clustered into horizontal lines.
//
// A LAD horizontal contour can cover both a genuine annotation line and a
// row of text that the morphological closing merged into it; blanket
// erasure would cut the glyphs in half. Each contour column is therefore
// erased only where its neighbourhood above and below is empty — true for
// line stretches, false inside a text block.
func DetectRegions(bw *imgproc.Binary, lines *lad.Result, cfg DetectConfig) []geom.Rect {
	work := bw.Clone()
	for _, v := range lines.V {
		work.ClearRect(geom.Rect{X0: v.Seg.X - 2, Y0: v.Seg.Y0, X1: v.Seg.X + 2, Y1: v.Seg.Y1})
	}
	for _, h := range lines.H {
		for x := h.Seg.X0; x <= h.Seg.X1; x++ {
			neighbours := bw.CountRect(geom.Rect{X0: x - 3, Y0: h.Seg.Y - 6, X1: x + 3, Y1: h.Seg.Y - 2}) +
				bw.CountRect(geom.Rect{X0: x - 3, Y0: h.Seg.Y + 2, X1: x + 3, Y1: h.Seg.Y + 6})
			if neighbours <= 1 {
				work.ClearRect(geom.Rect{X0: x, Y0: h.Seg.Y - 2, X1: x, Y1: h.Seg.Y + 2})
			}
		}
	}
	for _, run := range imgproc.HRuns(work, 24) {
		work.ClearRect(run.Rect())
	}
	for _, run := range imgproc.VRuns(work, 24) {
		work.ClearRect(run.Rect())
	}
	w := cfg.Workers
	if w == 0 {
		w = 1
	}
	comps := imgproc.RegionsW(work, 2, w)
	work.Release() // call-scoped scratch: only the regions' boxes are kept
	var boxes []geom.Rect
	for _, c := range comps {
		if c.Box.H() < cfg.MinGlyphH || c.Box.H() > cfg.MaxGlyphH || c.Box.W() > 3*cfg.MaxGlyphH {
			continue
		}
		boxes = append(boxes, c.Box)
	}
	// Cluster into lines: merge boxes that are horizontally close and
	// vertically overlapping.
	for {
		merged := false
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				a, b := boxes[i], boxes[j]
				if a.Expand(cfg.JoinDX, 0).Overlaps(b) && vOverlap(a, b) {
					boxes[i] = a.Union(b)
					boxes = append(boxes[:j], boxes[j+1:]...)
					merged = true
					j--
				}
			}
		}
		if !merged {
			break
		}
	}
	// Lines must contain some substance.
	var out []geom.Rect
	for _, b := range boxes {
		if b.W() >= 4 && b.H() >= cfg.MinGlyphH {
			out = append(out, b)
		}
	}
	return out
}

// vOverlap reports whether two boxes overlap vertically (sharing a line).
func vOverlap(a, b geom.Rect) bool {
	return a.Y0 <= b.Y1 && b.Y0 <= a.Y1
}

// ReadAll detects and recognises every text box in a picture. Leading and
// trailing glyphs that match no template (arrow heads or stroke debris that
// joined the cluster) are trimmed before the cluster-level confidence
// filter, so a long label next to an arrow head survives while pure-debris
// clusters are dropped.
func (m *Model) ReadAll(bw *imgproc.Binary, lines *lad.Result, cfg DetectConfig) []Result {
	out, _ := m.ReadAllCtx(context.Background(), bw, lines, cfg)
	return out
}

// ReadAllCtx is ReadAll with cooperative cancellation: the context is
// checked before region detection and between text boxes, so a
// pathological picture cannot run past its deadline by more than one
// region's recognition.
func (m *Model) ReadAllCtx(ctx context.Context, bw *imgproc.Binary, lines *lad.Result, cfg DetectConfig) ([]Result, error) {
	const glyphTrimConf = 0.36
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []Result
	for _, box := range DetectRegions(bw, lines, cfg) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		glyphs := m.readGlyphs(bw, box)
		for len(glyphs) > 0 && glyphs[0].conf < glyphTrimConf {
			glyphs = glyphs[1:]
		}
		for len(glyphs) > 0 && glyphs[len(glyphs)-1].conf < glyphTrimConf {
			glyphs = glyphs[:len(glyphs)-1]
		}
		text, conf := assemble(glyphs)
		if text == "" || conf < cfg.MinConf {
			continue
		}
		tight := glyphs[0].box
		for _, g := range glyphs {
			tight = tight.Union(g.box)
		}
		out = append(out, Result{Box: tight, Text: text, Conf: conf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Box.Y0 != out[j].Box.Y0 {
			return out[i].Box.Y0 < out[j].Box.Y0
		}
		return out[i].Box.X0 < out[j].Box.X0
	})
	return out, nil
}

// Lexicon post-processing: snap recognised strings to the nearest known
// vocabulary entry when the edit distance is small relative to the length.
type Lexicon struct {
	Entries []string
	// MaxRatio is the maximum edit-distance / length ratio to accept a
	// correction.
	MaxRatio float64
}

// NewLexicon builds a lexicon from vocabulary entries.
func NewLexicon(entries []string) *Lexicon {
	return &Lexicon{Entries: entries, MaxRatio: 0.34}
}

// Correct returns the closest lexicon entry if it is close enough,
// otherwise s unchanged.
func (l *Lexicon) Correct(s string) string {
	if l == nil || len(l.Entries) == 0 {
		return s
	}
	best, bestDist := "", 1<<30
	for _, e := range l.Entries {
		d := editDistance(s, e)
		if d < bestDist {
			best, bestDist = e, d
		}
	}
	n := len([]rune(s))
	if n == 0 {
		return s
	}
	if float64(bestDist)/float64(n) <= l.MaxRatio {
		return best
	}
	return s
}

// editDistance is the Levenshtein distance between two strings.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
