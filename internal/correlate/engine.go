package correlate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dbcatcher/internal/timeseries"
)

// resolveWorkers maps a worker knob to a pool size: values <= 0 use
// GOMAXPROCS, anything else is taken literally (1 = serial).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// minParallelWork is the smallest score-cell volume (KPIs x database pairs x
// window points) the engine fans out over goroutines. Below it the pool's
// spawn/join overhead rivals the build itself: at the paper's detection
// shape (14 KPIs x 10 pairs x 60 points = 8400 cells, ~20 ns/cell measured)
// a whole serial build finishes in ~180 us, while waking even a few workers
// costs tens of microseconds — and on single-core hosts (GOMAXPROCS=1) the
// fan-out is a pure loss. Results are bit-identical either way: each KPI
// matrix is filled by exactly one goroutine, so the cutoff only changes
// scheduling, never scores. Larger fleets (more databases) or longer
// windows cross the threshold and still parallelize.
const minParallelWork = 50000

// WindowSource supplies the windows a matrix build correlates: FillWindow
// copies the len(dst) points of KPI k on database d that begin at position
// start into dst (gap points as NaN). The build calls FillWindow at most
// once per (KPI, database), possibly from several goroutines at once, so it
// must only read shared state. *timeseries.UnitSeries is one.
type WindowSource interface {
	// Shape reports the number of KPIs and databases.
	Shape() (kpis, dbs int)
	FillWindow(k, d, start int, dst []float64)
}

// Engine builds the per-KPI correlation matrices of Eq. 5 over a bounded
// worker pool. The Q×pairs task grid is sharded per KPI: each worker claims
// whole KPIs off an atomic counter and fills that matrix alone, so the
// result is bit-identical to the serial build regardless of worker count or
// scheduling. Every worker draws a private Scratch from an internal pool
// and copies each database's window into it once per KPI; on the KCD path
// it also runs the kernel's per-series steps (gap repair, normalization,
// centering) once per database rather than once per pair. Steady-state
// builds into caller-owned matrices allocate nothing.
//
// An Engine is safe for concurrent use and is meant to be built once and
// reused across windows (the streaming monitor keeps one per unit).
type Engine struct {
	workers int
	useKCD  bool
	opts    Options
	measure Measure
	pool    sync.Pool // *Scratch
}

// NewEngine returns the allocation-lean KCD engine: pairs are scored
// bit-identically to KCDWithDelayScratch under the given options. workers
// <= 0 sizes the pool to GOMAXPROCS; 1 forces the serial path for
// determinism-sensitive or already-parallel callers (results are identical
// either way — serial only removes the goroutine fan-out).
func NewEngine(opts Options, workers int) *Engine {
	return &Engine{workers: workers, useKCD: true, opts: opts}
}

// NewMeasureEngine wraps an arbitrary pairwise measure (the Table X
// ablations: Pearson, Spearman, DTW, or a custom closure). The measure must
// be safe for concurrent use — every measure in this repository is a pure
// function — and must not retain or modify its arguments, which are the
// engine's scratch buffers. A measure built by KCDMeasure allocates per
// pair; prefer NewEngine for KCD.
func NewMeasureEngine(m Measure, workers int) *Engine {
	return &Engine{workers: workers, measure: m}
}

// Workers reports the resolved pool size.
func (e *Engine) Workers() int { return resolveWorkers(e.workers) }

// BuildMatrices computes the Q correlation matrices for the window
// [start, start+n) of a unit's multivariate series. active[d] marks whether
// database d participates; per the paper, an unused database has all of its
// scores set to 0. A nil active slice means all databases are active.
func (e *Engine) BuildMatrices(u *timeseries.UnitSeries, start, n int, active []bool) ([]*Matrix, error) {
	for k := 0; k < u.KPIs; k++ {
		for d := 0; d < u.Databases; d++ {
			if _, err := u.Series(k, d).Window(start, n); err != nil {
				return nil, err
			}
		}
	}
	out := NewMatrices(u.KPIs, u.Databases)
	if err := e.BuildInto(out, u, start, n, active); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildInto fills mats — one matrix per KPI, each sized for the source's
// databases — with the correlation matrices of the length-n windows src
// supplies from position start, overwriting every pair score. active
// follows BuildMatrices.
func (e *Engine) BuildInto(mats []*Matrix, src WindowSource, start, n int, active []bool) error {
	if !e.useKCD && e.measure == nil {
		return fmt.Errorf("correlate: nil measure")
	}
	kpis, dbs := src.Shape()
	if len(mats) != kpis {
		return fmt.Errorf("correlate: %d matrices for %d KPIs", len(mats), kpis)
	}
	for k, m := range mats {
		if m == nil || m.N != dbs {
			return fmt.Errorf("correlate: matrix %d does not match %d databases", k, dbs)
		}
	}
	if active != nil && len(active) != dbs {
		return fmt.Errorf("correlate: active mask has %d entries for %d databases", len(active), dbs)
	}
	if n < 0 {
		return fmt.Errorf("correlate: negative window length %d", n)
	}
	workers := e.Workers()
	if workers > kpis {
		workers = kpis
	}
	if pairs := dbs * (dbs - 1) / 2; kpis*pairs*n < minParallelWork {
		workers = 1 // small unit: fan-out overhead beats the win (see minParallelWork)
	}
	if workers <= 1 {
		s := e.scratch()
		for k := 0; k < kpis; k++ {
			e.buildKPI(src, k, start, n, active, mats[k], s)
		}
		e.pool.Put(s)
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.scratch()
			defer e.pool.Put(s)
			for {
				k := int(next.Add(1)) - 1
				if k >= kpis {
					return
				}
				e.buildKPI(src, k, start, n, active, mats[k], s)
			}
		}()
	}
	wg.Wait()
	return nil
}

// scratch draws a worker-private scratch from the pool.
func (e *Engine) scratch() *Scratch {
	s, _ := e.pool.Get().(*Scratch)
	if s == nil {
		s = NewScratch()
	}
	return s
}

// buildKPI fills one KPI's matrix: copy (and, for KCD, prepare) each
// active database's window once, then score every unordered pair.
func (e *Engine) buildKPI(src WindowSource, k, start, n int, active []bool, m *Matrix, s *Scratch) {
	win := s.growWindows(m.N, n)
	for d := range win {
		if active != nil && !active[d] {
			continue
		}
		src.FillWindow(k, d, start, win[d].v)
		if e.useKCD {
			win[d] = prepare(win[d].v, e.opts.Normalize)
		}
	}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if active != nil && (!active[i] || !active[j]) {
				m.Set(i, j, 0)
				continue
			}
			if e.useKCD {
				score, _ := scorePrepared(&win[i], &win[j], e.opts, s)
				m.Set(i, j, score)
			} else {
				m.Set(i, j, e.measure(win[i].v, win[j].v))
			}
		}
	}
}

// BuildOption tunes a BuildMatrices call.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
}

// WithWorkers bounds the fan-out worker pool (<= 0 means GOMAXPROCS).
func WithWorkers(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

// Serial disables the fan-out entirely — the single-goroutine reference
// path for determinism-sensitive callers (results are identical to the
// parallel build; only scheduling differs).
func Serial() BuildOption { return WithWorkers(1) }

// BuildMatrices computes the Q correlation matrices of Eq. 5 for the window
// [start, start+n) of a unit's multivariate series, fanning the per-KPI
// work out over a GOMAXPROCS-bounded worker pool by default (opt out with
// Serial, or bound it with WithWorkers). The measure must be safe for
// concurrent use unless Serial is passed. active[d] marks whether database
// d participates; a nil active slice means all databases are active.
//
// Callers on the KCD hot path should hold a reusable *Engine from
// NewEngine instead: it scores pairs through per-worker scratch buffers
// and avoids the per-call allocations of a generic measure closure.
func BuildMatrices(u *timeseries.UnitSeries, start, n int, active []bool, measure Measure, opt ...BuildOption) ([]*Matrix, error) {
	if measure == nil {
		return nil, fmt.Errorf("correlate: nil measure")
	}
	var cfg buildConfig
	for _, o := range opt {
		o(&cfg)
	}
	return NewMeasureEngine(measure, cfg.workers).BuildMatrices(u, start, n, active)
}
