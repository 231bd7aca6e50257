package imgproc

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// pngChunk is one chunk of a hand-built PNG.
type pngChunk struct {
	typ  string
	data []byte
}

// buildPNG concatenates the signature and chunks, with correct CRCs.
func buildPNG(chunks ...pngChunk) []byte {
	var out bytes.Buffer
	out.WriteString(pngSignature)
	for _, c := range chunks {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(c.data)))
		out.Write(n[:])
		out.WriteString(c.typ)
		out.Write(c.data)
		crc := crc32.Update(crc32.ChecksumIEEE([]byte(c.typ)), crc32.IEEETable, c.data)
		binary.BigEndian.PutUint32(n[:], crc)
		out.Write(n[:])
	}
	return out.Bytes()
}

func ihdr(w, h int, depth, colorType, interlace uint8) pngChunk {
	b := make([]byte, 13)
	binary.BigEndian.PutUint32(b[0:], uint32(w))
	binary.BigEndian.PutUint32(b[4:], uint32(h))
	b[8], b[9], b[12] = depth, colorType, interlace
	return pngChunk{"IHDR", b}
}

func zlibBytes(raw []byte) []byte {
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	_, _ = zw.Write(raw)
	_ = zw.Close()
	return buf.Bytes()
}

// filterRows encodes the rows of a gray8 picture with the given filter
// type per row (cycled), one byte per pixel.
func filterRows(pix []uint8, w, h int, filters []uint8) []byte {
	out := make([]byte, 0, h*(w+1))
	zero := make([]uint8, w)
	for y := 0; y < h; y++ {
		cur := pix[y*w : (y+1)*w]
		prev := zero
		if y > 0 {
			prev = pix[(y-1)*w : y*w]
		}
		ft := filters[y%len(filters)]
		out = append(out, ft)
		for x := 0; x < w; x++ {
			var a, c int
			if x > 0 {
				a, c = int(cur[x-1]), int(prev[x-1])
			}
			b := int(prev[x])
			var pred int
			switch ft {
			case 1:
				pred = a
			case 2:
				pred = b
			case 3:
				pred = (a + b) / 2
			case 4:
				p := a + b - c
				pa, pb, pc := iabs(p-a), iabs(p-b), iabs(p-c)
				switch {
				case pa <= pb && pa <= pc:
					pred = a
				case pb <= pc:
					pred = b
				default:
					pred = c
				}
			}
			out = append(out, uint8(int(cur[x])-pred))
		}
	}
	return out
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// testPicture is a w×h gray picture with flat runs, gradients and noise,
// so every filter has work to do.
func testPicture(rng *rand.Rand, w, h int) []uint8 {
	pix := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case (x/7+y/5)%3 == 0:
				pix[y*w+x] = 255
			case (x/7+y/5)%3 == 1:
				pix[y*w+x] = uint8(3*x + 5*y)
			default:
				pix[y*w+x] = uint8(rng.Intn(256))
			}
		}
	}
	return pix
}

// adam7 encodes a gray8 picture interlaced, every pass row unfiltered.
func adam7(pix []uint8, w, h int) []byte {
	passes := [7][4]int{{8, 8, 0, 0}, {8, 8, 4, 0}, {4, 8, 0, 4}, {4, 4, 2, 0}, {2, 4, 0, 2}, {2, 2, 1, 0}, {1, 2, 0, 1}}
	var raw []byte
	for _, p := range passes {
		for y := p[3]; y < h; y += p[1] {
			row := []byte{0}
			for x := p[2]; x < w; x += p[0] {
				row = append(row, pix[y*w+x])
			}
			if len(row) > 1 {
				raw = append(raw, row...)
			}
		}
	}
	return raw
}

// decodeSeeds returns named PNG streams covering the fast path, every
// fallback format and each class of corruption the decoder must refuse.
func decodeSeeds(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(13))
	const w, h = 37, 23
	pix := testPicture(rng, w, h)
	all := filterRows(pix, w, h, []uint8{0, 1, 2, 3, 4})
	gray8 := buildPNG(ihdr(w, h, 8, 0, 0), pngChunk{"IDAT", zlibBytes(all)}, pngChunk{"IEND", nil})

	seeds := map[string][]byte{"gray8-all-filters": gray8}
	for ft := uint8(0); ft < 5; ft++ {
		seeds["gray8-filter-"+string('0'+ft)] = buildPNG(ihdr(w, h, 8, 0, 0),
			pngChunk{"IDAT", zlibBytes(filterRows(pix, w, h, []uint8{ft}))}, pngChunk{"IEND", nil})
	}
	// Repeated rows of vertical stripes: Paeth predicts every pixel from
	// above, so whole words of zero residuals sit under a row that is not
	// flat, where the left neighbour would be the wrong prediction.
	stripes := make([]uint8, w*h)
	for i := range stripes {
		stripes[i] = uint8(40 * ((i % w) / 3 % 5))
	}
	seeds["gray8-paeth-stripes"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", zlibBytes(filterRows(stripes, w, h, []uint8{4}))}, pngChunk{"IEND", nil})
	z := zlibBytes(all)
	seeds["gray8-split-idat"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", z[:5]}, pngChunk{"IDAT", z[5:40]}, pngChunk{"IDAT", z[40:]}, pngChunk{"IEND", nil})
	seeds["gray8-trns"] = buildPNG(ihdr(w, h, 8, 0, 0), pngChunk{"tRNS", []byte{0x12, 255}},
		pngChunk{"IDAT", z}, pngChunk{"IEND", nil})
	seeds["gray8-text-first"] = buildPNG(pngChunk{"tEXt", []byte("Comment\x00first")}, ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", z}, pngChunk{"tEXt", []byte("k\x00v")}, pngChunk{"IEND", nil})
	seeds["gray8-interlaced"] = buildPNG(ihdr(w, h, 8, 0, 1), pngChunk{"IDAT", zlibBytes(adam7(pix, w, h))}, pngChunk{"IEND", nil})
	seeds["gray8-bad-filter"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", zlibBytes(append([]byte{5}, all[1:]...))}, pngChunk{"IEND", nil})
	seeds["gray8-extra-row"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", zlibBytes(append(append([]byte{}, all...), all[:w+1]...))}, pngChunk{"IEND", nil})
	seeds["gray8-short-rows"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", zlibBytes(all[:len(all)-w])}, pngChunk{"IEND", nil})
	seeds["gray8-truncated"] = gray8[:len(gray8)/2]
	badCRC := append([]byte{}, gray8...)
	badCRC[len(badCRC)-13] ^= 1 // last IDAT CRC byte
	seeds["gray8-bad-crc"] = badCRC
	badAdler := append([]byte{}, z...)
	badAdler[len(badAdler)-1] ^= 1
	seeds["gray8-bad-adler"] = buildPNG(ihdr(w, h, 8, 0, 0), pngChunk{"IDAT", badAdler}, pngChunk{"IEND", nil})
	seeds["gray8-trailing-zlib"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", append(append([]byte{}, z...), 1, 2, 3)}, pngChunk{"IEND", nil})
	// Past the 4096-byte read-ahead, trailing bytes stay unread in the
	// chunk, and image/png refuses them as too much pixel data.
	seeds["gray8-trailing-zlib-long"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", append(append([]byte{}, z...), make([]byte, 5000)...)}, pngChunk{"IEND", nil})
	seeds["gray8-trailing-idat"] = buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", z}, pngChunk{"IDAT", []byte{1, 2, 3}}, pngChunk{"IEND", nil})
	seeds["gray8-no-iend"] = buildPNG(ihdr(w, h, 8, 0, 0), pngChunk{"IDAT", z})
	seeds["gray8-idat-first"] = buildPNG(pngChunk{"IDAT", z}, ihdr(w, h, 8, 0, 0), pngChunk{"IEND", nil})
	seeds["gray8-plte"] = buildPNG(ihdr(w, h, 8, 0, 0), pngChunk{"PLTE", make([]byte, 12)},
		pngChunk{"IDAT", z}, pngChunk{"IEND", nil})

	encode := func(img image.Image) []byte {
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	r := image.Rect(0, 0, w, h)
	g16 := image.NewGray16(r)
	nrgba := image.NewNRGBA(r)
	rgba := image.NewRGBA(r)
	pal := make(color.Palette, 200)
	for i := range pal {
		pal[i] = color.NRGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	paletted := image.NewPaletted(r, pal)
	for i := 0; i < w*h; i++ {
		x, y := i%w, i/w
		g16.SetGray16(x, y, color.Gray16{uint16(rng.Intn(1 << 16))})
		nrgba.SetNRGBA(x, y, color.NRGBA{pix[i], uint8(rng.Intn(256)), uint8(x * 7), uint8(rng.Intn(256))})
		rgba.SetRGBA(x, y, color.RGBA{pix[i], uint8(y * 9), uint8(x * 7), 255})
		paletted.SetColorIndex(x, y, uint8(rng.Intn(len(pal))))
	}
	seeds["gray16"] = encode(g16)
	seeds["nrgba"] = encode(nrgba)
	seeds["rgb"] = encode(rgba)
	seeds["paletted"] = encode(paletted)
	seeds["paletted-text-first"] = append(buildPNG(pngChunk{"tEXt", []byte("a\x00b")}), seeds["paletted"][8:]...)
	seeds["gray4"] = buildPNG(ihdr(8, 2, 4, 0, 0), pngChunk{"IDAT", zlibBytes([]byte{0, 1, 2, 3, 4, 0, 0xfe, 0xdc, 0xba, 0x98})},
		pngChunk{"IEND", nil})
	return seeds
}

// refDecode is the reference the decoder must match: png.Decode, then the
// generic per-pixel color.GrayModel conversion.
func refDecode(data []byte) (*Gray, error) {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	b := img.Bounds()
	g := NewGray(b.Dx(), b.Dy())
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			g.Pix[y*g.W+x] = color.GrayModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.Gray).Y
		}
	}
	return g, nil
}

// checkDecodeMatches decodes data both ways and fails unless both refuse
// it or both produce the same pixels.
func checkDecodeMatches(t *testing.T, name string, data []byte) {
	t.Helper()
	if cfg, err := png.DecodeConfig(bytes.NewReader(data)); err == nil && cfg.Width*cfg.Height > 1<<20 {
		return // keep the reference decoder's allocation small
	}
	want, werr := refDecode(data)
	got, gerr := DecodePNG(bytes.NewReader(data))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: image/png error %v, DecodePNG error %v", name, werr, gerr)
	}
	if werr != nil {
		return
	}
	defer got.Release()
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatalf("%s: pixels differ from image/png + color.GrayModel", name)
	}
}

func TestDecodePNGMatchesStdlib(t *testing.T) {
	for name, data := range decodeSeeds(t) {
		checkDecodeMatches(t, name, data)
	}
}

// TestDecodePNGSeedVerdicts pins which seeds decode, so the differential
// comparison cannot pass by both decoders refusing everything.
func TestDecodePNGSeedVerdicts(t *testing.T) {
	ok := map[string]bool{
		"gray8-all-filters": true, "gray8-filter-0": true, "gray8-filter-1": true, "gray8-filter-2": true,
		"gray8-filter-3": true, "gray8-filter-4": true, "gray8-paeth-stripes": true, "gray8-split-idat": true, "gray8-trns": true,
		"gray8-text-first": true, "gray8-interlaced": true, "gray8-trailing-idat": true,
		// image/png's zlib read-ahead swallows bytes after the zlib stream
		// that share its IDAT chunk, so it accepts them.
		"gray8-trailing-zlib": true,
		"gray16":              true, "nrgba": true, "rgb": true, "paletted": true, "paletted-text-first": true, "gray4": true,
	}
	for name, data := range decodeSeeds(t) {
		g, err := DecodePNG(bytes.NewReader(data))
		if (err == nil) != ok[name] {
			t.Errorf("%s: error %v, want success %v", name, err, ok[name])
		}
		g.Release()
	}
}

func FuzzDecodePNG(f *testing.F) {
	seeds := decodeSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatches(t, "input", data)
	})
}

func TestDecodePNGRefusesPixelBomb(t *testing.T) {
	// 40000×40000 declared in a few dozen bytes: refused from the IHDR,
	// whatever the colour type, before any raster exists.
	for _, ct := range []uint8{0, 2, 3, 6} {
		data := buildPNG(ihdr(40000, 40000, 8, ct, 0), pngChunk{"IDAT", zlibBytes([]byte{0})}, pngChunk{"IEND", nil})
		before := totalAlloc()
		_, err := DecodePNG(bytes.NewReader(data))
		grew := totalAlloc() - before
		var tooLarge *RasterTooLargeError
		if !errors.As(err, &tooLarge) || tooLarge.W != 40000 || tooLarge.H != 40000 {
			t.Fatalf("colour type %d: error %v, want RasterTooLargeError", ct, err)
		}
		if grew > 1<<20 {
			t.Errorf("colour type %d: refusing the bomb allocated %d bytes", ct, grew)
		}
		if err := ScreenPNG(data); !errors.As(err, &tooLarge) {
			t.Errorf("colour type %d: ScreenPNG error %v, want RasterTooLargeError", ct, err)
		}
	}
}

// TestScreenPNGAgreesWithDecode checks that the upload screen passes every
// picture DecodePNG accepts and refuses what DecodePNG refuses from the
// IHDR alone.
func TestScreenPNGAgreesWithDecode(t *testing.T) {
	for name, data := range decodeSeeds(t) {
		g, decErr := DecodePNG(bytes.NewReader(data))
		g.Release()
		err := ScreenPNG(data)
		if decErr == nil && err != nil {
			t.Errorf("%s: decodes, but ScreenPNG refuses it: %v", name, err)
		}
	}
	valid := buildPNG(ihdr(4, 4, 8, 0, 0), pngChunk{"IDAT", zlibBytes(make([]byte, 20))}, pngChunk{"IEND", nil})
	for name, data := range map[string][]byte{
		"short":          valid[:28],
		"not png":        append([]byte("GIF89a.."), valid[8:]...),
		"zero width":     buildPNG(ihdr(0, 4, 8, 0, 0)),
		"bad depth":      buildPNG(ihdr(4, 4, 3, 0, 0)),
		"bad interlace":  buildPNG(ihdr(4, 4, 8, 0, 2)),
		"first not IHDR": buildPNG(pngChunk{"tEXt", make([]byte, 13)}),
	} {
		if ScreenPNG(data) == nil {
			t.Errorf("%s: ScreenPNG accepts it", name)
		}
		if _, err := DecodePNG(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: DecodePNG accepts it", name)
		}
	}
}

func TestFromImageFastPathsMatchGrayModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := image.Rect(2, 3, 2+41, 3+29)
	nrgba := image.NewNRGBA(bounds)
	for i := range nrgba.Pix {
		nrgba.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 3; i < len(nrgba.Pix); i += 4 {
		switch rng.Intn(3) { // transparent, opaque and partial alpha
		case 0:
			nrgba.Pix[i] = 0
		case 1:
			nrgba.Pix[i] = 255
		}
	}
	// A 256-entry palette and a picture using every index, so the LUT is
	// checked entry by entry; the palette mixes RGBA and NRGBA colours.
	pal := make(color.Palette, 256)
	for i := range pal {
		if i%2 == 0 {
			pal[i] = color.NRGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
		} else {
			pal[i] = color.RGBA{uint8(i), uint8(i / 2), uint8(i / 3), 255}
		}
	}
	paletted := image.NewPaletted(image.Rect(0, 0, 16, 16), pal)
	for i := range paletted.Pix {
		paletted.Pix[i] = uint8(i)
	}
	for name, img := range map[string]image.Image{"nrgba": nrgba, "paletted": paletted} {
		got := FromImage(img)
		b := img.Bounds()
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				want := color.GrayModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.Gray).Y
				if got.Pix[y*got.W+x] != want {
					t.Fatalf("%s: FromImage(%d,%d)=%d want %d", name, x, y, got.Pix[y*got.W+x], want)
				}
			}
		}
		got.Release()
	}
}

// TestDecodePNGSteadyStateAllocs pins the point of the raster pool: once
// warm, decoding a gray8 picture and releasing it allocates only small
// bookkeeping (the Gray header and the inflater's Huffman link tables),
// never a raster-sized buffer.
func TestDecodePNGSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const w, h = 320, 240
	pix := testPicture(rand.New(rand.NewSource(8)), w, h)
	data := buildPNG(ihdr(w, h, 8, 0, 0),
		pngChunk{"IDAT", zlibBytes(filterRows(pix, w, h, []uint8{0, 1, 2, 3, 4}))}, pngChunk{"IEND", nil})
	r := bytes.NewReader(data)
	decode := func() {
		r.Reset(data)
		g, err := DecodePNG(r)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	decode()
	const runs = 50
	before := totalAlloc()
	allocs := testing.AllocsPerRun(runs, decode)
	perRun := (totalAlloc() - before) / (runs + 1) // AllocsPerRun adds a warm-up call
	if allocs > 16 {
		t.Errorf("DecodePNG+Release allocates %v times per call, want at most 16", allocs)
	}
	if perRun >= w*h/8 {
		t.Errorf("DecodePNG+Release allocates %d bytes per call, want far below the %d-byte raster", perRun, w*h)
	}
}
