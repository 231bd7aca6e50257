//go:build !race

package imgproc

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose, so pooled-allocation pins cannot hold.
const raceEnabled = false
