package imgproc

import "sync"

// Raster pools. Decoded pictures and per-picture scratch images are the
// largest allocations of a translation, and every one of them is dropped
// when the translation ends; the pools below recycle their backing arrays.
//
// One pool serves every size. A recycled array is reused for any request
// between half its capacity and its capacity, and otherwise dropped for the
// collector, so a buffer never wastes more than half its memory and a huge
// picture's buffer is not kept circulating by a stream of small ones. Pools
// bucketed by size class were measured first: with pictures spread over
// three classes, each class parked its own buffers, and tdserve's peak RSS
// rose by a quarter; one pool parks no more buffers than requests run at
// once. New arrays get a quarter of headroom, so pictures of similar sizes
// share them. sync.Pool drops whatever sat unused through two garbage
// collections, so an idle process holds no rasters.

// SlabPool recycles []T backing arrays with the reuse rule above. A slab
// travels with its holder pointer, so returning it to the pool allocates
// nothing. Buffers of very different sizes belong in different pools, or
// each would evict the other. The zero value is ready to use.
type SlabPool[T any] struct {
	p sync.Pool
}

// Get returns a slice of length n with undefined content, and the holder
// to hand back to Put once the slice is dead.
func (p *SlabPool[T]) Get(n int) ([]T, *[]T) {
	if v := p.p.Get(); v != nil {
		h := v.(*[]T)
		if c := cap(*h); c >= n && c <= 2*n {
			return (*h)[:n], h
		}
	}
	s := make([]T, n+n/4)
	return s[:n], &s
}

// Put returns a slab obtained from Get. A nil holder is ignored.
func (p *SlabPool[T]) Put(h *[]T) {
	if h != nil {
		p.p.Put(h)
	}
}

var (
	grayPool   SlabPool[uint8]
	binaryPool SlabPool[uint64]
)

// newPooledGray returns a w×h Gray whose pixels come from the raster pool
// with undefined content; the caller overwrites every pixel.
func newPooledGray(w, h int) *Gray {
	pix, slab := grayPool.Get(w * h)
	return &Gray{W: w, H: h, Pix: pix, slab: slab}
}

// Release hands g's pixel buffer back to the raster pool. The layer that
// decoded a picture calls it once every reader of the picture is done; g
// must not be used afterwards (it is left empty, so a stray read fails
// loudly instead of seeing another picture's pixels). A Gray whose pixels
// were not pooled is only emptied, and a Gray that is never released is
// simply collected.
func (g *Gray) Release() {
	if g == nil {
		return
	}
	grayPool.Put(g.slab)
	*g = Gray{}
}

// NewBinaryScratch returns a w×h Binary from the raster pool with
// undefined content, padding bits included: the caller must overwrite
// every word before reading any, and should Release the image when done.
func NewBinaryScratch(w, h int) *Binary {
	stride := (w + 63) / 64
	words, slab := binaryPool.Get(h * stride)
	return &Binary{W: w, H: h, Stride: stride, Words: words, slab: slab}
}

// Release hands b's words back to the raster pool; b must not be used
// afterwards. Releasing a Binary whose words were not pooled only empties
// it.
func (b *Binary) Release() {
	if b == nil {
		return
	}
	binaryPool.Put(b.slab)
	*b = Binary{}
}
