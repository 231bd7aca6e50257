package tdmagic

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"runtime"
	"sync"
	"testing"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/store"
)

// servePathMaxBytes bounds BenchmarkServePath's steady-state allocation
// per request; the raster pools keep it far below one raster.
const servePathMaxBytes = 256 << 10

// pngFormats are the encodings the path benchmarks decode. gray8 is what
// tdrender and the benchmark corpus produce and what DecodePNG decodes
// itself; the others take its image/png fallback.
var pngFormats = []string{"gray8", "rgb", "nrgba", "paletted", "interlaced"}

// encodeAs encodes g in one of pngFormats. The nrgba picture has one
// transparent corner pixel, as otherwise image/png would write it as rgb.
func encodeAs(b *testing.B, g *imgproc.Gray, format string) []byte {
	var img image.Image
	switch format {
	case "gray8":
		img = g.ToImage()
	case "rgb", "nrgba":
		m := image.NewNRGBA(image.Rect(0, 0, g.W, g.H))
		for i, v := range g.Pix {
			copy(m.Pix[4*i:], []uint8{v, v, v, 0xff})
		}
		if format == "nrgba" {
			m.Pix[3] = 0
		}
		img = m
	case "paletted":
		pal := make(color.Palette, 256)
		for i := range pal {
			pal[i] = color.Gray{Y: uint8(i)}
		}
		img = &image.Paletted{Pix: g.Pix, Stride: g.W, Rect: image.Rect(0, 0, g.W, g.H), Palette: pal}
	case "interlaced":
		return encodeInterlacedGray8(g)
	default:
		b.Fatalf("unknown format %q", format)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// encodeInterlacedGray8 writes g as an Adam7-interlaced 8-bit grayscale
// PNG, which image/png cannot write: every pass row is stored unfiltered.
func encodeInterlacedGray8(g *imgproc.Gray) []byte {
	passes := [7][4]int{{0, 0, 8, 8}, {4, 0, 8, 8}, {0, 4, 4, 8}, {2, 0, 4, 4}, {0, 2, 2, 4}, {1, 0, 2, 2}, {0, 1, 1, 2}}
	var raw []byte
	for _, p := range passes {
		x0, y0, dx, dy := p[0], p[1], p[2], p[3]
		if x0 >= g.W || y0 >= g.H {
			continue // an empty pass stores no rows
		}
		for y := y0; y < g.H; y += dy {
			raw = append(raw, 0)
			for x := x0; x < g.W; x += dx {
				raw = append(raw, g.Pix[y*g.W+x])
			}
		}
	}
	var idat bytes.Buffer
	zw := zlib.NewWriter(&idat)
	_, _ = zw.Write(raw)
	_ = zw.Close()

	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], uint32(g.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(g.H))
	ihdr[8], ihdr[12] = 8, 1 // depth 8, gray, Adam7
	out := []byte("\x89PNG\r\n\x1a\n")
	for _, c := range []struct {
		typ  string
		data []byte
	}{{"IHDR", ihdr}, {"IDAT", idat.Bytes()}, {"IEND", nil}} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(c.data)))
		out = append(out, c.typ...)
		out = append(out, c.data...)
		crc := crc32.Update(crc32.ChecksumIEEE([]byte(c.typ)), crc32.IEEETable, c.data)
		out = binary.BigEndian.AppendUint32(out, crc)
	}
	return out
}

// benchPNGs encodes the validation and industrial pictures in format and
// reports their mean pixel count.
func benchPNGs(b *testing.B, format string) (*core.Pipeline, [][]byte, float64) {
	pipe, val, corpus := benchSetup(b)
	var pngs [][]byte
	pixels := 0
	for _, s := range append(append([]*Sample{}, val...), corpus...) {
		pngs = append(pngs, encodeAs(b, s.Image, format))
		pixels += s.Image.W * s.Image.H
	}
	return pipe, pngs, float64(pixels) / float64(len(pngs))
}

// serveRequest does what tdserve does for a cache miss, without HTTP:
// decode the PNG, hash its pixels, translate, encode the artifact JSON,
// release the raster.
func serveRequest(pipe *core.Pipeline, data []byte) error {
	img, err := imgproc.DecodePNG(bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer img.Release()
	_ = store.HashImage(img)
	out, rep, err := pipe.Translate(img)
	if err != nil {
		return err
	}
	_, err = json.Marshal(batch.Artifact{SPO: out, Spec: out.SpecText(), Diags: rep.Diags})
	return err
}

// runServePath runs serveRequest over pngs on GOMAXPROCS goroutines and
// returns the bytes allocated per request. Before measuring, as many
// requests as the benchmark runs goroutines run at once, so each
// goroutine's first raster and scratch images come from the pools as in a
// serving process, and B/op does not depend on GOMAXPROCS.
func runServePath(b *testing.B, pipe *core.Pipeline, pngs [][]byte) uint64 {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := serveRequest(pipe, pngs[i%len(pngs)]); err != nil {
				b.Error(err)
			}
		}(i)
	}
	wg.Wait()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if err := serveRequest(pipe, pngs[i%len(pngs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
}

// BenchmarkServePath measures what tdserve does for a cache miss on the
// 8-bit grayscale validation and industrial pictures, in process. Its B/op
// is the per-request allocation a serving process pays in steady state;
// with at least 100 iterations it fails above servePathMaxBytes. The
// bound is set for -cpu 2: each translation's per-worker scratch grows
// with GOMAXPROCS (about 185 KB per request at 32).
func BenchmarkServePath(b *testing.B) {
	pipe, pngs, _ := benchPNGs(b, "gray8")
	if perOp := runServePath(b, pipe, pngs); b.N >= 100 && perOp > servePathMaxBytes {
		b.Errorf("%d bytes allocated per request, want at most %d", perOp, servePathMaxBytes)
	}
}

// BenchmarkServePathFormats runs BenchmarkServePath's requests on the same
// pictures in every one of pngFormats, with no allocation bound: the
// formats other than gray8 decode through image/png.
func BenchmarkServePathFormats(b *testing.B) {
	for _, format := range pngFormats {
		b.Run(format, func(b *testing.B) {
			pipe, pngs, _ := benchPNGs(b, format)
			runServePath(b, pipe, pngs)
		})
	}
}

// BenchmarkDecodePNG decodes the validation and industrial pictures in
// every one of pngFormats with DecodePNG (releasing each raster, as the
// serving layers do) and, for reference, with image/png plus FromImage.
func BenchmarkDecodePNG(b *testing.B) {
	for _, format := range pngFormats {
		_, pngs, pixels := benchPNGs(b, format)
		b.Run(format+"/imgproc", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img, err := imgproc.DecodePNG(bytes.NewReader(pngs[i%len(pngs)]))
				if err != nil {
					b.Fatal(err)
				}
				img.Release()
			}
			b.ReportMetric(pixels, "pixels/op")
		})
		b.Run(format+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img, err := png.Decode(bytes.NewReader(pngs[i%len(pngs)]))
				if err != nil {
					b.Fatal(err)
				}
				_ = imgproc.FromImage(img)
			}
		})
	}
}
