package timeseries

import "math"

// Ring is a fixed-capacity ring buffer of float64 observations. The
// monitoring data-processing module keeps one Ring per (KPI, database) pair;
// when full, the oldest point is overwritten so the buffer always holds the
// most recent Cap() observations.
//
// Real collectors drop points: a tick can arrive with no value for this
// (KPI, database) cell. The ring records such holes explicitly — a gap
// occupies a slot (so absolute tick arithmetic stays valid) but is marked,
// letting downstream consumers skip or interpolate it instead of judging
// garbage. Gap slots store NaN; pushing NaN marks a gap automatically.
//
// Ring is not safe for concurrent use; the monitor serializes access.
type Ring struct {
	buf   []float64
	gap   []bool
	head  int // index of the oldest element
	count int
	gaps  int // gap entries currently stored
}

// NewRing returns a ring buffer with the given capacity (must be > 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("timeseries: ring capacity must be positive")
	}
	return &Ring{buf: make([]float64, capacity), gap: make([]bool, capacity)}
}

// Cap returns the fixed capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of stored observations (<= Cap).
func (r *Ring) Len() int { return r.count }

// GapCount returns how many of the stored observations are gaps.
func (r *Ring) GapCount() int { return r.gaps }

// Push appends v, evicting the oldest observation when full. A NaN value is
// recorded as a gap. It reports whether an eviction occurred.
func (r *Ring) Push(v float64) (evicted bool) {
	return r.push(v, math.IsNaN(v))
}

// PushGap appends an explicit gap marker (a dropped collection point),
// evicting the oldest observation when full.
func (r *Ring) PushGap() (evicted bool) {
	return r.push(math.NaN(), true)
}

// slot maps the i-th oldest observation (0 <= i < Cap) to its buffer index
// by compare-and-wrap: head and i are both below Cap, so one subtraction
// replaces the integer division of a modulo on the per-tick ingest path.
func (r *Ring) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

func (r *Ring) push(v float64, gap bool) (evicted bool) {
	if r.count < len(r.buf) {
		i := r.slot(r.count)
		r.buf[i] = v
		r.gap[i] = gap
		if gap {
			r.gaps++
		}
		r.count++
		return false
	}
	// Full: overwrite the oldest slot. Every slot of a full ring holds a
	// stored observation, so a ring with no gaps has all-false flags and a
	// gap-free push need not touch the flag array at all.
	h := r.head
	if r.gaps > 0 {
		if r.gap[h] {
			r.gaps--
		}
		r.gap[h] = gap
	} else if gap {
		r.gap[h] = true
	}
	r.buf[h] = v
	if gap {
		r.gaps++
	}
	r.head = r.slot(1)
	return true
}

// At returns the i-th oldest observation (0 = oldest). Gap slots read NaN.
func (r *Ring) At(i int) float64 {
	if i < 0 || i >= r.count {
		panic("timeseries: ring index out of range")
	}
	return r.buf[r.slot(i)]
}

// IsGap reports whether the i-th oldest observation (0 = oldest) is a
// dropped collection point.
func (r *Ring) IsGap(i int) bool {
	if i < 0 || i >= r.count {
		panic("timeseries: ring index out of range")
	}
	return r.gap[r.slot(i)]
}

// GapsInRange counts the gaps among observations [start, start+n) (0 =
// oldest stored).
func (r *Ring) GapsInRange(start, n int) int {
	if start < 0 || n < 0 || start+n > r.count {
		panic("timeseries: ring range out of bounds")
	}
	if r.gaps == 0 {
		return 0
	}
	total := 0
	a, b := r.segments(start, n)
	for _, g := range a {
		if g {
			total++
		}
	}
	for _, g := range b {
		if g {
			total++
		}
	}
	return total
}

// CopyRange copies observations [start, start+len(dst)) (0 = oldest
// stored) into dst, oldest first, as at most two contiguous copies. Gap
// slots read NaN.
func (r *Ring) CopyRange(start int, dst []float64) {
	n := len(dst)
	if start < 0 || start+n > r.count {
		panic("timeseries: ring range out of bounds")
	}
	i := r.slot(start)
	first := copy(dst, r.buf[i:])
	copy(dst[first:], r.buf[:n-first])
}

// segments returns the gap flags of observations [start, start+n) as the
// (at most) two contiguous runs of the backing store they occupy.
func (r *Ring) segments(start, n int) (a, b []bool) {
	i := r.slot(start)
	if i+n <= len(r.gap) {
		return r.gap[i : i+n], nil
	}
	return r.gap[i:], r.gap[:i+n-len(r.gap)]
}

// Last returns the n most recent observations, oldest first. If fewer than
// n observations are stored it returns what is available.
func (r *Ring) Last(n int) []float64 {
	if n > r.count {
		n = r.count
	}
	out := make([]float64, n)
	start := r.count - n
	for i := 0; i < n; i++ {
		out[i] = r.At(start + i)
	}
	return out
}

// Snapshot returns all stored observations, oldest first.
func (r *Ring) Snapshot() []float64 { return r.Last(r.count) }

// Reset discards all observations.
func (r *Ring) Reset() {
	r.head = 0
	r.count = 0
	r.gaps = 0
}
