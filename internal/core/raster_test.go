package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"tdmagic/internal/diag"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/spo"
)

// encodeResult encodes what the serving layers persist of a translation:
// SPO, spec text and diagnostics.
func encodeResult(out *spo.SPO, rep *Report) ([]byte, error) {
	return json.Marshal(struct {
		SPO   *spo.SPO
		Spec  string
		Diags []diag.Diagnostic
	}{out, out.SpecText(), rep.Diags})
}

// translateEncoded translates img and encodes the result.
func translateEncoded(pipe *Pipeline, img *imgproc.Gray) ([]byte, error) {
	out, rep, err := pipe.Translate(img)
	if err != nil {
		return nil, err
	}
	return encodeResult(out, rep)
}

func encodePNGs(t *testing.T, imgs ...*imgproc.Gray) [][]byte {
	t.Helper()
	var out [][]byte
	for _, img := range imgs {
		var buf bytes.Buffer
		if err := img.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReleasedRasterDoesNotLeakIntoResults translates a decoded picture,
// releases its raster, decodes a second picture of the same size (into
// the recycled buffer, when the pool hands it back) and translates that:
// the first translation's artifact must still encode byte-identically.
// The pipeline keeps no reference to its input raster.
func TestReleasedRasterDoesNotLeakIntoResults(t *testing.T) {
	pipe, val := trainSmall(t)
	// A second picture of the same size, so it lands in the same size
	// class of the raster pool.
	first := val[0].Image
	second := val[1].Image.ScaleTo(first.W, first.H)
	pngs := encodePNGs(t, first, second)

	img, err := imgproc.DecodePNG(bytes.NewReader(pngs[0]))
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := pipe.Translate(img)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(out, rep)
	if err != nil {
		t.Fatal(err)
	}
	buf := &img.Pix[0]
	img.Release()

	img2, err := imgproc.DecodePNG(bytes.NewReader(pngs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if &img2.Pix[0] != buf {
		t.Log("the pool handed out a fresh buffer; the check below is weaker")
	}
	if _, _, err := pipe.Translate(img2); err != nil {
		t.Fatal(err)
	}
	img2.Release()
	if got, err := encodeResult(out, rep); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first artifact changed after its raster was recycled:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentDecodeTranslateRelease runs decode → translate → release
// loops on several goroutines over a shared pipeline, so under -race any
// raster or scratch buffer handed out twice, or read after its release,
// shows up; every result must equal the sequential one.
func TestConcurrentDecodeTranslateRelease(t *testing.T) {
	pipe, val := trainSmall(t)
	var imgs []*imgproc.Gray
	for _, s := range val {
		imgs = append(imgs, s.Image)
	}
	pngs := encodePNGs(t, imgs...)
	want := make([][]byte, len(pngs))
	for i, s := range val {
		var err error
		if want[i], err = translateEncoded(pipe, s.Image); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range pngs {
					i := (k + g) % len(pngs)
					img, err := imgproc.DecodePNG(bytes.NewReader(pngs[i]))
					if err != nil {
						t.Error(err)
						return
					}
					got, err := translateEncoded(pipe, img)
					img.Release()
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d picture %d: artifact differs from the sequential run (error %v)", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
