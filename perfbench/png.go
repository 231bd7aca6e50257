package main

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"

	"tdmagic/internal/imgproc"
)

// pngTemplate encodes many single-pixel variants of one grayscale picture
// cheaply. The picture is encoded once as the repository's own PNG writer
// encodes it, and the filtered rows 1..H-1 of that encoding are deflated
// once more, with row 1 switched to the None filter so that no row depends
// on row 0; a variant then only re-emits row 0 as a stored deflate block in
// front of that shared stream and fixes up the two checksums. Encoding a
// picture from scratch costs ≈8 ms, a variant a few microseconds, which is
// what lets the benchmark give every cold request a picture nobody has
// sent before, at the decode cost of an ordinary PNG.
type pngTemplate struct {
	w, h      int
	row0      []byte // the base picture's first row, unfiltered
	rest      []byte // deflate stream of rows 1..H-1 with their filter bytes
	restAdler uint32
	restLen   int
}

func newPNGTemplate(img *imgproc.Gray) (*pngTemplate, error) {
	var enc bytes.Buffer
	if err := img.EncodePNG(&enc); err != nil {
		return nil, err
	}
	filtered, err := pngRows(enc.Bytes())
	if err != nil {
		return nil, err
	}
	stride := img.W + 1
	if len(filtered) != img.H*stride {
		return nil, fmt.Errorf("png template: %d filtered bytes for a %dx%d gray picture", len(filtered), img.W, img.H)
	}
	raw := filtered[stride:]
	if img.H > 1 {
		raw[0] = 0 // row 1: filter None
		copy(raw[1:stride], img.Pix[img.W:2*img.W])
	}
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.DefaultCompression) // level is valid
	_, _ = fw.Write(raw)                                     // bytes.Buffer writes cannot fail
	_ = fw.Close()
	return &pngTemplate{
		w: img.W, h: img.H,
		row0:      append([]byte(nil), img.Pix[:img.W]...),
		rest:      buf.Bytes(),
		restAdler: adler32.Checksum(raw),
		restLen:   len(raw),
	}, nil
}

// pngRows returns the inflated IDAT stream of a non-interlaced PNG: each
// row's filter byte followed by its filtered bytes.
func pngRows(data []byte) ([]byte, error) {
	var idat []byte
	for p := 8; p+8 <= len(data); {
		n := int(binary.BigEndian.Uint32(data[p:]))
		typ := string(data[p+4 : p+8])
		if p+12+n > len(data) {
			return nil, fmt.Errorf("png template: truncated %s chunk", typ)
		}
		if typ == "IDAT" {
			idat = append(idat, data[p+8:p+8+n]...)
		}
		p += 12 + n
	}
	zr, err := zlib.NewReader(bytes.NewReader(idat))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// encode returns the PNG of the template picture with row 0 replaced.
func (t *pngTemplate) encode(row0 []byte) []byte {
	first := make([]byte, 0, len(row0)+1)
	first = append(first, 0) // filter None
	first = append(first, row0...)

	var z bytes.Buffer
	z.Write([]byte{0x78, 0x9c})
	// Stored block, not final: BFINAL=0, BTYPE=00, then LEN and NLEN.
	z.WriteByte(0)
	var ln [4]byte
	binary.LittleEndian.PutUint16(ln[0:], uint16(len(first)))
	binary.LittleEndian.PutUint16(ln[2:], ^uint16(len(first)))
	z.Write(ln[:])
	z.Write(first)
	z.Write(t.rest)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], adler32Combine(adler32.Checksum(first), t.restAdler, t.restLen))
	z.Write(sum[:])

	var out bytes.Buffer
	out.Write([]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'})
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(t.w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(t.h))
	ihdr[8] = 8 // bit depth; colour type 0 (gray), no interlace
	writeChunk(&out, "IHDR", ihdr[:])
	writeChunk(&out, "IDAT", z.Bytes())
	writeChunk(&out, "IEND", nil)
	return out.Bytes()
}

// variant returns the k-th variant of the picture: one background pixel
// of row 0 darkened by a grey level or a few, never enough to become ink.
// Distinct k give distinct pixel content for k < eligible*8. ok is false
// when row 0 has no background pixel to change.
func (t *pngTemplate) variant(k int) ([]byte, bool) {
	var cols []int
	for x, v := range t.row0 {
		if v >= 250 {
			cols = append(cols, x)
		}
	}
	if len(cols) == 0 || k >= len(cols)*8 {
		return nil, false
	}
	row := append([]byte(nil), t.row0...)
	row[cols[k%len(cols)]] -= byte(1 + k/len(cols))
	return t.encode(row), true
}

func writeChunk(out *bytes.Buffer, typ string, data []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(data)))
	out.Write(n[:])
	c := crc32.NewIEEE()
	c.Write([]byte(typ))
	c.Write(data)
	out.WriteString(typ)
	out.Write(data)
	binary.BigEndian.PutUint32(n[:], c.Sum32())
	out.Write(n[:])
}

// adler32Combine returns the Adler-32 of A||B from the checksums of A and
// B and the length of B (zlib's adler32_combine).
func adler32Combine(a, b uint32, lenB int) uint32 {
	const mod = 65521
	rem := uint32(lenB % mod)
	s1a, s2a := a&0xffff, a>>16
	s1b, s2b := b&0xffff, b>>16
	s1 := (s1a + s1b + mod - 1) % mod
	s2 := (s2a + s2b + (rem*s1a)%mod + mod - rem) % mod
	return s2<<16 | s1
}
