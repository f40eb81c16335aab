//go:build race

package correlate

// raceEnabled reports a -race build, where sync.Pool deliberately drops a
// random share of Puts: pooled scratch is then re-allocated at random and
// allocation counts through a pool mean nothing.
const raceEnabled = true
