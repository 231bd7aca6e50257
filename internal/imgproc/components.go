package imgproc

import (
	"math/bits"
	"sort"
	"sync"

	"tdmagic/internal/geom"
	"tdmagic/internal/parallel"
)

// Component is a maximal set of 8-connected ink pixels.
type Component struct {
	Box    geom.Rect // bounding box of the component
	Area   int       // number of pixels in the component
	Points []geom.Pt // member pixels, row-major order
}

// hrun is a maximal horizontal run of set pixels, the labelling unit of the
// connected-component pass. Runs are stored in global row-major order
// ((y, x0) ascending), so a run's slice index doubles as its discovery rank.
type hrun struct {
	y      int32
	x0, x1 int32 // inclusive column range
}

// Region is a connected component reduced to its aggregate geometry. The
// pipeline's consumers (contour extraction, edge proposals, text regions)
// only need the bounding box and pixel count, so the labelling pass can skip
// materialising the member-pixel list entirely.
type Region struct {
	Box  geom.Rect
	Area int
}

// Components labels b with 8-connectivity and returns every connected
// component of set pixels, sorted top-to-bottom then left-to-right by
// bounding-box origin. Components with fewer than minArea pixels are dropped.
func Components(b *Binary, minArea int) []Component {
	return ComponentsW(b, minArea, 1)
}

// Regions is RegionsW with a single worker.
func Regions(b *Binary, minArea int) []Region {
	return RegionsW(b, minArea, 1)
}

// RegionsW labels b like ComponentsW but returns only each component's
// bounding box and area, skipping the per-pixel Points materialisation —
// the fast path for callers that never look at individual member pixels.
// Ordering and filtering are identical to ComponentsW.
func RegionsW(b *Binary, minArea, workers int) []Region {
	sc := labelPool.Get().(*labelScratch)
	defer putLabelScratch(sc)
	runs, parent := sc.labelRuns(b, workers)
	if runs == nil {
		return nil
	}
	accs, _ := sc.accumulate(runs, parent)
	regs := make([]Region, 0, len(accs))
	for _, a := range accs {
		if int(a.area) >= minArea {
			regs = append(regs, Region{Box: a.box, Area: int(a.area)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Box.Y0 != regs[j].Box.Y0 {
			return regs[i].Box.Y0 < regs[j].Box.Y0
		}
		return regs[i].Box.X0 < regs[j].Box.X0
	})
	return regs
}

// ComponentsW is Components fanned out over workers goroutines (<= 1 runs
// sequentially, inline). The image rows are split into bands: each band
// extracts its runs with trailing-zero word scans and unions vertically
// adjacent runs locally, then a sequential stitch pass merges runs across
// the band boundaries in index order. Union-by-minimum-index keeps every
// set's root at the component's first run in row-major order, so component
// discovery order — and therefore the sorted output — is bit-identical for
// any worker count, and identical to the historical per-pixel flood fill.
func ComponentsW(b *Binary, minArea, workers int) []Component {
	sc := labelPool.Get().(*labelScratch)
	defer putLabelScratch(sc)
	runs, parent := sc.labelRuns(b, workers)
	if runs == nil {
		return nil
	}
	accs, compOf := sc.accumulate(runs, parent)

	// Materialise the kept components, Points in row-major order.
	kept := make([]int32, len(accs))
	var comps []Component
	for ci, a := range accs {
		if int(a.area) >= minArea {
			kept[ci] = int32(len(comps))
			comps = append(comps, Component{
				Box:    a.box,
				Area:   int(a.area),
				Points: make([]geom.Pt, 0, a.area),
			})
		} else {
			kept[ci] = -1
		}
	}
	for i := range runs {
		ki := kept[compOf[i]]
		if ki < 0 {
			continue
		}
		pts := comps[ki].Points
		y := int(runs[i].y)
		for x := int(runs[i].x0); x <= int(runs[i].x1); x++ {
			pts = append(pts, geom.Pt{X: x, Y: y})
		}
		comps[ki].Points = pts
	}

	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Box.Y0 != comps[j].Box.Y0 {
			return comps[i].Box.Y0 < comps[j].Box.Y0
		}
		return comps[i].Box.X0 < comps[j].Box.X0
	})
	return comps
}

// labelScratch is the working memory of one labelling call: every slice
// is resized per call and fully rewritten before it is read, so the
// arrays are recycled through labelPool instead of reallocated for each
// picture.
type labelScratch struct {
	bandRuns [][]hrun
	rowOff   []int32
	runs     []hrun
	parent   []int32
	compOf   []int32
	accs     []compAcc
}

var labelPool = sync.Pool{New: func() any { return new(labelScratch) }}

// maxPooledRuns bounds the scratch labelPool keeps: one pathological
// picture's run arrays are left to the collector instead of circulating.
const maxPooledRuns = 1 << 18

// putLabelScratch returns sc to labelPool unless it grew too large.
func putLabelScratch(sc *labelScratch) {
	if cap(sc.runs) <= maxPooledRuns {
		labelPool.Put(sc)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the content is undefined.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// labelRuns extracts the maximal horizontal runs of b in row-major order and
// unions 8-connected runs, banded over workers goroutines. It returns nil
// runs when the image is blank or degenerate. The slices live in sc.
func (sc *labelScratch) labelRuns(b *Binary, workers int) (runs []hrun, parent []int32) {
	if b.W <= 0 || b.H <= 0 {
		return nil, nil
	}
	workers = parallel.Resolve(workers)

	// Band partition: at least a few rows per band so the stitch pass stays
	// negligible; one band per worker is enough (runs scale with rows).
	nb := workers
	if nb > b.H {
		nb = b.H
	}
	if nb < 1 {
		nb = 1
	}
	bandStart := func(i int) int { return i * b.H / nb }

	// Pass 1: per-band run extraction, plus per-row run counts so the bands
	// can be concatenated into one row-major slice with O(1) row lookup.
	sc.bandRuns = resize(sc.bandRuns, nb)
	bandRuns := sc.bandRuns
	sc.rowOff = resize(sc.rowOff, b.H+1)
	rowOff := sc.rowOff
	rowOff[0] = 0
	parallel.For(workers, nb, func(bi int) {
		y0, y1 := bandStart(bi), bandStart(bi+1)
		rs := bandRuns[bi][:0]
		for y := y0; y < y1; y++ {
			row := b.Row(y)
			n := int32(0)
			x := nextSet(row, 0, b.W)
			for x < b.W {
				end := nextClear(row, x+1, b.W)
				rs = append(rs, hrun{y: int32(y), x0: int32(x), x1: int32(end - 1)})
				n++
				x = nextSet(row, end+1, b.W)
			}
			rowOff[y+1] = n // per-row count; prefix-summed below
		}
		bandRuns[bi] = rs
	})
	for y := 0; y < b.H; y++ {
		rowOff[y+1] += rowOff[y]
	}
	nRuns := int(rowOff[b.H])
	if nRuns == 0 {
		return nil, nil
	}
	sc.runs = resize(sc.runs, nRuns)
	sc.parent = resize(sc.parent, nRuns)
	runs, parent = sc.runs, sc.parent
	parallel.For(workers, nb, func(bi int) {
		off := rowOff[bandStart(bi)]
		copy(runs[off:], bandRuns[bi])
		for i := range bandRuns[bi] {
			parent[int(off)+i] = off + int32(i)
		}
	})

	// Pass 2: union vertically adjacent runs. Each band unions the row pairs
	// strictly inside it — those touch only run indices in the band's range,
	// so the bands are data-independent — and the boundary row pairs are
	// stitched sequentially afterwards, in band order.
	parallel.For(workers, nb, func(bi int) {
		for y := bandStart(bi) + 1; y < bandStart(bi+1); y++ {
			unionRows(runs, parent, rowOff, y)
		}
	})
	for bi := 1; bi < nb; bi++ {
		unionRows(runs, parent, rowOff, bandStart(bi))
	}
	return runs, parent
}

// compAcc is the per-component aggregate built by accumulate.
type compAcc struct {
	box  geom.Rect
	area int32
}

// accumulate resolves every run's root and folds area and bounding box per
// component. Union-by-min guarantees root(i) <= i, so one ascending sweep
// sees every root before its members; components come out in discovery
// order (row-major order of each component's first run).
func (sc *labelScratch) accumulate(runs []hrun, parent []int32) ([]compAcc, []int32) {
	sc.compOf = resize(sc.compOf, len(runs))
	compOf := sc.compOf
	accs := sc.accs[:0]
	for i := range runs {
		r := findRoot(parent, int32(i))
		var ci int32
		if int(r) == i {
			ci = int32(len(accs))
			accs = append(accs, compAcc{box: geom.Rect{
				X0: int(runs[i].x0), Y0: int(runs[i].y),
				X1: int(runs[i].x1), Y1: int(runs[i].y),
			}})
		} else {
			ci = compOf[r]
			a := &accs[ci]
			if int(runs[i].x0) < a.box.X0 {
				a.box.X0 = int(runs[i].x0)
			}
			if int(runs[i].x1) > a.box.X1 {
				a.box.X1 = int(runs[i].x1)
			}
			a.box.Y1 = int(runs[i].y) // runs arrive in ascending y
		}
		compOf[i] = ci
		accs[ci].area += runs[i].x1 - runs[i].x0 + 1
	}
	sc.accs = accs
	return accs, compOf
}

// unionRows unions every 8-connected run pair between row y-1 and row y with
// a linear merge of the two sorted run lists.
func unionRows(runs []hrun, parent []int32, rowOff []int32, y int) {
	i, iEnd := rowOff[y-1], rowOff[y]
	j, jEnd := rowOff[y], rowOff[y+1]
	for i < iEnd && j < jEnd {
		// 8-connectivity: the run above touches [x0-1, x1+1] of the run below.
		if runs[i].x1+1 >= runs[j].x0 && runs[i].x0 <= runs[j].x1+1 {
			union(parent, i, j)
		}
		if runs[i].x1 < runs[j].x1 {
			i++
		} else {
			j++
		}
	}
}

// findRoot returns the set root with path halving.
func findRoot(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// union merges the sets of a and b, keeping the smaller root index — so a
// set's root is always its first run in row-major order.
func union(parent []int32, a, b int32) {
	ra, rb := findRoot(parent, a), findRoot(parent, b)
	if ra == rb {
		return
	}
	if ra < rb {
		parent[rb] = ra
	} else {
		parent[ra] = rb
	}
}

// Mask returns a Binary of the component's bounding-box size with exactly the
// component's pixels set (coordinates relative to Box).
func (c Component) Mask() *Binary {
	m := NewBinary(c.Box.W(), c.Box.H())
	for _, p := range c.Points {
		m.Set(p.X-c.Box.X0, p.Y-c.Box.Y0, true)
	}
	return m
}

// RowProfile returns, for each row of b, the number of set pixels.
func RowProfile(b *Binary) []int {
	prof := make([]int, b.H)
	for y := 0; y < b.H; y++ {
		n := 0
		for _, w := range b.Row(y) {
			n += bits.OnesCount64(w)
		}
		prof[y] = n
	}
	return prof
}

// ColProfile returns, for each column of b, the number of set pixels.
//
// Columns are counted 64 at a time without transposing: per word column a
// bit-sliced adder (8 carry planes, one bit per column each) accumulates up
// to 255 rows, and the planes are unpacked into the profile per chunk. The
// cost is a handful of word operations per row instead of one popcount-loop
// iteration per set pixel, which keeps dense images (solid plateaus, filled
// glyphs) as cheap as sparse ones.
func ColProfile(b *Binary) []int {
	prof := make([]int, b.W)
	for wi := 0; wi < b.Stride; wi++ {
		base := wi << 6
		width := 64
		if base+width > b.W {
			width = b.W - base
		}
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		rows := 0
		flush := func() {
			for l := 0; l < width; l++ {
				prof[base+l] += int(c0>>l&1) | int(c1>>l&1)<<1 | int(c2>>l&1)<<2 |
					int(c3>>l&1)<<3 | int(c4>>l&1)<<4 | int(c5>>l&1)<<5 |
					int(c6>>l&1)<<6 | int(c7>>l&1)<<7
			}
			c0, c1, c2, c3, c4, c5, c6, c7 = 0, 0, 0, 0, 0, 0, 0, 0
			rows = 0
		}
		for y := 0; y < b.H; y++ {
			// Ripple-carry add of one bit per column; the carry chain
			// almost always dies after one or two planes.
			c := b.Words[y*b.Stride+wi]
			c, c0 = c&c0, c^c0
			if c != 0 {
				c, c1 = c&c1, c^c1
				if c != 0 {
					c, c2 = c&c2, c^c2
					if c != 0 {
						c, c3 = c&c3, c^c3
						if c != 0 {
							c, c4 = c&c4, c^c4
							if c != 0 {
								c, c5 = c&c5, c^c5
								if c != 0 {
									c, c6 = c&c6, c^c6
									c7 ^= c // rows < 256: no carry out
								}
							}
						}
					}
				}
			}
			if rows++; rows == 255 {
				flush()
			}
		}
		if rows > 0 {
			flush()
		}
	}
	return prof
}

// HRuns returns every maximal horizontal run of set pixels in b that is at
// least minLen pixels long.
func HRuns(b *Binary, minLen int) []geom.HSeg {
	var runs []geom.HSeg
	for y := 0; y < b.H; y++ {
		row := b.Row(y)
		x := nextSet(row, 0, b.W)
		for x < b.W {
			end := nextClear(row, x+1, b.W)
			if end-x >= minLen {
				runs = append(runs, geom.HSeg{Y: y, X0: x, X1: end - 1})
			}
			x = nextSet(row, end+1, b.W)
		}
	}
	return runs
}

// VRuns returns every maximal vertical run of set pixels in b that is at
// least minLen pixels long.
//
// Columns are processed 64 at a time: per word-column the run starts are
// `row &^ prevRow` and the run ends `prevRow &^ row`, so a single pass down
// the image tracks all 64 lanes in parallel.
func VRuns(b *Binary, minLen int) []geom.VSeg {
	var runs []geom.VSeg
	var start [64]int32
	for wi := 0; wi < b.Stride; wi++ {
		blockBase := len(runs)
		var prev uint64
		for y := 0; y < b.H; y++ {
			w := b.Words[y*b.Stride+wi]
			starts := w &^ prev
			for starts != 0 {
				start[bits.TrailingZeros64(starts)] = int32(y)
				starts &= starts - 1
			}
			ends := prev &^ w
			for ends != 0 {
				l := bits.TrailingZeros64(ends)
				ends &= ends - 1
				if y-int(start[l]) >= minLen {
					runs = append(runs, geom.VSeg{X: wi<<6 + l, Y0: int(start[l]), Y1: y - 1})
				}
			}
			prev = w
		}
		for prev != 0 {
			l := bits.TrailingZeros64(prev)
			prev &= prev - 1
			if b.H-int(start[l]) >= minLen {
				runs = append(runs, geom.VSeg{X: wi<<6 + l, Y0: int(start[l]), Y1: b.H - 1})
			}
		}
		// Lanes finished in arbitrary order within the block; restore the
		// column-major (x, then y) ordering of the per-pixel reference.
		block := runs[blockBase:]
		sort.Slice(block, func(i, j int) bool {
			if block[i].X != block[j].X {
				return block[i].X < block[j].X
			}
			return block[i].Y0 < block[j].Y0
		})
	}
	return runs
}
