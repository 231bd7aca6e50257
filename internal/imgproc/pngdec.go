package imgproc

import (
	"bufio"
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image/png"
	"io"
	"sync"
)

// MaxPixels bounds the picture area (width × height) DecodePNG accepts.
// The decoder refuses a larger declared raster from its IHDR chunk, before
// allocating anything, so a tiny file cannot make any caller allocate an
// enormous raster; the pipeline applies the same bound to pictures that
// did not come through the decoder.
const MaxPixels = 1 << 26 // 67 Mpx, ~8192 x 8192

// RasterTooLargeError reports a PNG whose IHDR declares more than
// MaxPixels pixels.
type RasterTooLargeError struct {
	W, H int64
}

func (e *RasterTooLargeError) Error() string {
	return fmt.Sprintf("declared %dx%d raster exceeds the %d-pixel limit", e.W, e.H, MaxPixels)
}

// DecodePNG reads a PNG from r and converts it to a Gray whose pixels come
// from the raster pool; the caller may Release it when done.
//
// Non-interlaced 8-bit grayscale is decoded here without the image/png
// detour: each row is inflated and unfiltered in place in the pooled
// raster, and the zlib state is reused across calls. That is every picture
// of the benchmark corpus and of tdrender's output; the share of such
// pictures in real uploads is unmeasured. Any other colour type, bit depth
// or interlacing is handed, from the IHDR on, to image/png and FromImage.
// Both paths accept and refuse exactly the same streams as image/png
// (signature, chunk CRCs, IHDR validation, chunk order, zlib header and
// Adler-32, filter types, pixel data length) and produce the same pixels
// as png.Decode followed by FromImage, except that a raster of more than
// MaxPixels pixels is refused.
func DecodePNG(r io.Reader) (*Gray, error) {
	d := decoderPool.Get().(*pngDecoder)
	g, err := d.decode(r)
	d.r = nil
	d.br.Reset(nil)
	if cap(d.prefix) > 1<<12 {
		d.prefix = nil // a rare oversized preamble is not worth keeping
	}
	decoderPool.Put(d)
	if err != nil {
		return nil, fmt.Errorf("imgproc: decode png: %w", err)
	}
	return g, nil
}

const pngSignature = "\x89PNG\r\n\x1a\n"

// Decoding stages, in the order image/png requires the chunks.
const (
	stStart = iota
	stSeenIHDR
	stSeentRNS
	stSeenIDAT
	stSeenIEND
)

var (
	errChunkOrder = png.FormatError("chunk out of order")
	errChecksum   = png.FormatError("invalid checksum")
)

// pngDecoder is the reusable state of one decode. Its inflate state and
// read-ahead buffer survive in decoderPool between calls.
type pngDecoder struct {
	r        io.Reader
	crc      uint32
	idatLeft uint32 // unread data bytes of the current IDAT chunk
	stage    int
	tmp      [13]byte

	// prefix records the bytes read while recording is on, before the
	// IHDR decides the path, so a stream handed to image/png can be
	// replayed from its start.
	prefix    []byte
	recording bool

	// br sits between the IDAT data and the inflater, sized as image/png
	// sizes it: how far zlib reads ahead decides whether bytes trailing
	// the zlib stream inside an IDAT chunk are "too much pixel data", and
	// matching it keeps that verdict identical to image/png's.
	br *bufio.Reader
	zr io.ReadCloser // compress/zlib, reused through zlib.Resetter; nil until the first stream
}

var decoderPool = sync.Pool{New: func() any {
	d := &pngDecoder{}
	d.br = bufio.NewReaderSize(d, 4096)
	return d
}}

// readFull reads len(p) bytes of chunk structure, recording them while
// the decoding path is undecided.
func (d *pngDecoder) readFull(p []byte) error {
	_, err := io.ReadFull(d.r, p)
	if err == nil && d.recording {
		d.prefix = append(d.prefix, p...)
	}
	return err
}

// verifyChecksum reads a chunk's CRC and compares it with the running one.
func (d *pngDecoder) verifyChecksum() error {
	var b [4]byte
	if err := d.readFull(b[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(b[:]) != d.crc {
		return errChecksum
	}
	return nil
}

// chunkHeader reads a chunk's length and type and starts its CRC.
func (d *pngDecoder) chunkHeader() (uint32, [4]byte, error) {
	var b [8]byte
	if err := d.readFull(b[:]); err != nil {
		return 0, [4]byte{}, err
	}
	d.crc = crc32.Update(0, crc32.IEEETable, b[4:8])
	return binary.BigEndian.Uint32(b[:4]), [4]byte(b[4:8]), nil
}

// decode runs image/png's chunk loop for an 8-bit grayscale stream and
// hands any other stream to image/png once its IHDR is known.
func (d *pngDecoder) decode(r io.Reader) (g *Gray, err error) {
	*d = pngDecoder{r: r, br: d.br, zr: d.zr, prefix: d.prefix[:0], recording: true}
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			g.Release()
			g = nil
		}
	}()
	if err := d.readFull(d.tmp[:8]); err != nil {
		return nil, err
	}
	if string(d.tmp[:8]) != pngSignature {
		return nil, png.FormatError("not a PNG file")
	}
	var (
		w, h    int
		haveKey bool
		key     uint8
	)
	for d.stage != stSeenIEND {
		length, typ, err := d.chunkHeader()
		if err != nil {
			return g, err
		}
		switch string(typ[:]) {
		case "IHDR":
			if d.stage != stStart {
				return g, errChunkOrder
			}
			d.stage = stSeenIHDR
			var gray8 bool
			if w, h, gray8, err = d.parseIHDR(length); err != nil {
				return g, err
			}
			if !gray8 {
				return d.fallback()
			}
			d.recording = false
			continue
		case "PLTE":
			if d.stage != stSeenIHDR {
				return g, errChunkOrder
			}
			return g, png.FormatError("PLTE, color type mismatch")
		case "tRNS":
			if d.stage != stSeenIHDR {
				return g, errChunkOrder
			}
			d.stage = stSeentRNS
			if length != 2 {
				return g, png.FormatError("bad tRNS length")
			}
			if err := d.readFull(d.tmp[:2]); err != nil {
				return g, err
			}
			d.crc = crc32.Update(d.crc, crc32.IEEETable, d.tmp[:2])
			// image/png keys 8-bit gray on the low byte alone.
			haveKey, key = true, d.tmp[1]
			if err := d.verifyChecksum(); err != nil {
				return g, err
			}
			continue
		case "IDAT":
			if d.stage < stSeenIHDR {
				return g, errChunkOrder
			}
			if d.stage == stSeenIDAT {
				break // a later IDAT run: skipped like an unknown chunk
			}
			d.stage = stSeenIDAT
			d.idatLeft = length
			g = newPooledGray(w, h)
			if err := d.readPixels(g, haveKey, key); err != nil {
				return g, err
			}
			if err := d.verifyChecksum(); err != nil {
				return g, err
			}
			continue
		case "IEND":
			if d.stage != stSeenIDAT {
				return g, errChunkOrder
			}
			d.stage = stSeenIEND
			if length != 0 {
				return g, png.FormatError("bad IEND length")
			}
			if err := d.verifyChecksum(); err != nil {
				return g, err
			}
			continue
		}
		if err := d.skipChunk(length); err != nil {
			return g, err
		}
	}
	return g, nil
}

// parseIHDR reads and checks the IHDR body, left in d.tmp, and its CRC.
func (d *pngDecoder) parseIHDR(length uint32) (w, h int, gray8 bool, err error) {
	if length != 13 {
		return 0, 0, false, png.FormatError("bad IHDR length")
	}
	if err := d.readFull(d.tmp[:13]); err != nil {
		return 0, 0, false, err
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.tmp[:13])
	if w, h, gray8, err = checkIHDR(d.tmp[:13]); err != nil {
		return 0, 0, false, err
	}
	return w, h, gray8, d.verifyChecksum()
}

// checkIHDR validates a 13-byte IHDR body as image/png does and applies
// the MaxPixels screen. gray8 reports a non-interlaced 8-bit grayscale
// image, the one DecodePNG decodes itself.
func checkIHDR(b []byte) (w, h int, gray8 bool, err error) {
	if b[10] != 0 {
		return 0, 0, false, png.UnsupportedError("compression method")
	}
	if b[11] != 0 {
		return 0, 0, false, png.UnsupportedError("filter method")
	}
	if b[12] > 1 {
		return 0, 0, false, png.FormatError("invalid interlace method")
	}
	w32 := int32(binary.BigEndian.Uint32(b[0:4]))
	h32 := int32(binary.BigEndian.Uint32(b[4:8]))
	if w32 <= 0 || h32 <= 0 {
		return 0, 0, false, png.FormatError("non-positive dimension")
	}
	if !validDepthColor(b[8], b[9]) {
		return 0, 0, false, png.UnsupportedError(fmt.Sprintf("bit depth %d, color type %d", b[8], b[9]))
	}
	if int64(w32)*int64(h32) > MaxPixels {
		return 0, 0, false, &RasterTooLargeError{W: int64(w32), H: int64(h32)}
	}
	return int(w32), int(h32), b[8] == 8 && b[9] == 0 && b[12] == 0, nil
}

// ScreenPNG applies DecodePNG's checks up to and including the IHDR, the
// MaxPixels screen among them, to a PNG held in memory, so a caller can
// refuse an upload it will only decode later. Like DecodePNG it skips
// ancillary chunks in front of the IHDR. A nil result does not promise
// that the rest decodes.
func ScreenPNG(data []byte) error {
	if len(data) < len(pngSignature) || string(data[:len(pngSignature)]) != pngSignature {
		return png.FormatError("not a PNG file")
	}
	for p := data[len(pngSignature):]; ; {
		if len(p) < 8 {
			return io.ErrUnexpectedEOF
		}
		length := uint64(binary.BigEndian.Uint32(p[:4]))
		switch string(p[4:8]) {
		case "IHDR":
			if length != 13 {
				return png.FormatError("bad IHDR length")
			}
			if len(p) < 8+13 {
				return io.ErrUnexpectedEOF
			}
			_, _, _, err := checkIHDR(p[8 : 8+13])
			return err
		case "PLTE", "tRNS", "IDAT", "IEND":
			return errChunkOrder
		}
		if uint64(len(p)) < 12+length {
			return io.ErrUnexpectedEOF
		}
		p = p[12+length:]
	}
}

// validDepthColor reports a bit depth and colour type combination the PNG
// specification (and image/png) allows.
func validDepthColor(depth, ct uint8) bool {
	switch ct {
	case 0: // grayscale
		return depth == 1 || depth == 2 || depth == 4 || depth == 8 || depth == 16
	case 3: // paletted
		return depth == 1 || depth == 2 || depth == 4 || depth == 8
	case 2, 4, 6: // truecolor, gray+alpha, truecolor+alpha
		return depth == 8 || depth == 16
	}
	return false
}

// fallback decodes the rest of the stream with image/png, replaying the
// bytes already read in front of it.
func (d *pngDecoder) fallback() (*Gray, error) {
	img, err := png.Decode(io.MultiReader(bytes.NewReader(d.prefix), d.r))
	if err != nil {
		return nil, err
	}
	return FromImage(img), nil
}

// skipChunk discards an ignored chunk's data and checks its CRC.
func (d *pngDecoder) skipChunk(length uint32) error {
	if length > 0x7fffffff {
		return png.FormatError(fmt.Sprintf("Bad chunk length: %d", length))
	}
	var buf [4096]byte
	for length > 0 {
		n := min(len(buf), int(length))
		if err := d.readFull(buf[:n]); err != nil {
			return err
		}
		d.crc = crc32.Update(d.crc, crc32.IEEETable, buf[:n])
		length -= uint32(n)
	}
	return d.verifyChecksum()
}

// Read presents the data of consecutive IDAT chunks as one stream, checking
// each chunk's CRC as it is left behind, exactly as image/png's decoder
// does. It is the source of d.br.
func (d *pngDecoder) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for d.idatLeft == 0 {
		if err := d.verifyChecksum(); err != nil {
			return 0, err
		}
		length, typ, err := d.chunkHeader()
		if err != nil {
			return 0, err
		}
		if string(typ[:]) != "IDAT" {
			return 0, png.FormatError("not enough pixel data")
		}
		d.idatLeft = length
	}
	n, err := d.r.Read(p[:min(len(p), int(d.idatLeft))])
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p[:n])
	d.idatLeft -= uint32(n)
	return n, err
}

// readPixels inflates the IDAT stream and unfilters it row by row straight
// into g, then checks that the stream ends exactly after the last row. A
// tRNS key maps to 0, which is what color.GrayModel makes of the fully
// transparent pixels image/png decodes it to.
func (d *pngDecoder) readPixels(g *Gray, haveKey bool, key uint8) error {
	d.br.Reset(d)
	if d.zr == nil {
		zr, err := zlib.NewReader(d.br)
		if err != nil {
			return err
		}
		d.zr = zr
	} else if err := d.zr.(zlib.Resetter).Reset(d.br, nil); err != nil {
		return err
	}
	w := g.W
	var prev []uint8 // nil: the row of zeros above row 0
	var ft [1]byte
	var err error
	for y := 0; y < g.H; y++ {
		cur := g.Pix[y*w : (y+1)*w]
		_, err = io.ReadFull(d.zr, ft[:])
		if err == nil {
			_, err = io.ReadFull(d.zr, cur)
		}
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return png.FormatError("not enough pixel data")
			}
			return err
		}
		if !unfilter(ft[0], cur, prev) {
			return png.FormatError("bad filter type")
		}
		// The next row unfilters against this row's raw values, so the
		// key of a row is mapped once its successor is done.
		if haveKey && y > 0 {
			mapKey(prev, key)
		}
		prev = cur
	}
	if haveKey {
		mapKey(prev, key)
	}
	// The stream must end here, its Adler-32 checked on the way.
	n := 0
	for i := 0; n == 0 && err == nil; i++ {
		if i == 100 {
			return io.ErrNoProgress
		}
		n, err = d.zr.Read(ft[:])
	}
	if err != nil && err != io.EOF {
		return png.FormatError(err.Error())
	}
	if n != 0 || d.idatLeft != 0 {
		return png.FormatError("too much pixel data")
	}
	return nil
}

// unfilter reverses a one-byte-per-pixel row filter in place; prev is the
// unfiltered row above, nil for row 0. It reports false for an unknown
// filter type.
func unfilter(ft uint8, cur, prev []uint8) bool {
	if prev == nil {
		// Above row 0 lies a row of zeros: Up adds nothing, and Paeth
		// always predicts the left neighbour, as Sub does.
		switch ft {
		case 2:
			ft = 0
		case 4:
			ft = 1
		}
	}
	switch ft {
	case 0: // None
	case 1: // Sub
		for i := 1; i < len(cur); i++ {
			cur[i] += cur[i-1]
		}
	case 2: // Up
		addBytes(cur, prev)
	case 3: // Average: rare in practice, so one plain loop serves row 0 too
		for i := range cur {
			var left, up int
			if i > 0 {
				left = int(cur[i-1])
			}
			if prev != nil {
				up = int(prev[i])
			}
			cur[i] += uint8((left + up) / 2)
		}
	case 4: // Paeth
		paeth(cur, prev)
	default:
		return false
	}
	return true
}

// addBytes adds src to dst bytewise modulo 256, eight bytes at a time: the
// low seven bits of each byte add without crossing into the next byte, and
// the top bit is the XOR of the two top bits and that carry.
func addBytes(dst, src []uint8) {
	const hi = 0x8080808080808080
	src = src[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], ((a&^hi)+(b&^hi))^((a^b)&hi))
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// paeth reverses the Paeth filter for one byte per pixel, with
// image/png's branches.
func paeth(cur, prev []uint8) {
	prev = prev[:len(cur)]
	a, c := 0, 0 // left and upper-left, unfiltered
	for i := range cur {
		b := int(prev[i])
		pa := b - c // |p - a| with p = a + b - c
		pb := a - c // |p - b|
		pc := abs(pa + pb)
		pa, pb = abs(pa), abs(pb)
		if pa <= pb && pa <= pc {
			// predictor a
		} else if pb <= pc {
			a = b
		} else {
			a = c
		}
		a = (a + int(cur[i])) & 0xff
		cur[i] = uint8(a)
		c = b
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// mapKey replaces every pixel equal to the tRNS key with 0.
func mapKey(row []uint8, key uint8) {
	for i, v := range row {
		if v == key {
			row[i] = 0
		}
	}
}
