package correlate

import (
	"fmt"
	"math"
	"testing"

	"dbcatcher/internal/mathx"
	"dbcatcher/internal/timeseries"
)

// randomGapUnit builds a kpis x dbs unit of length-n series drawn from a
// family of shapes the prepared build must handle exactly as the per-pair
// kernel does: shared trends with noise, interior / leading / trailing NaN
// gap runs, all-gap series, constant series, and series that are constant
// apart from their gaps.
func randomGapUnit(rng *mathx.RNG, kpis, dbs, n int) *timeseries.UnitSeries {
	u := timeseries.NewUnitSeries("prepared", kpis, dbs)
	for k := 0; k < kpis; k++ {
		period := 5 + rng.Float64()*20
		for d := 0; d < dbs; d++ {
			v := make([]float64, n)
			scale := rng.Range(0.5, 50)
			for i := range v {
				v[i] = scale*math.Sin(2*math.Pi*float64(i)/period) + rng.Norm()
			}
			switch rng.Intn(8) {
			case 0: // interior gap run
				if n > 4 {
					at := 1 + rng.Intn(n-3)
					for i := at; i < at+1+rng.Intn(3) && i < n-1; i++ {
						v[i] = math.NaN()
					}
				}
			case 1: // leading and trailing gaps
				v[0] = math.NaN()
				v[n-1] = math.NaN()
			case 2: // all gaps
				for i := range v {
					v[i] = math.NaN()
				}
			case 3: // constant
				c := rng.Range(-3, 3)
				for i := range v {
					v[i] = c
				}
			case 4: // constant apart from a gap
				for i := range v {
					v[i] = 7
				}
				v[rng.Intn(n)] = math.NaN()
			}
			u.Series(k, d).Values = v
		}
	}
	return u
}

// TestPreparedBuildMatchesPairKernel is the build's numerical contract:
// preparing each database's window once per KPI and scoring every pair
// from the prepared windows is bit-identical to scoring each pair with
// KCDWithDelayScratch, over gaps, degenerate windows, partial masks, both
// delay-scan paths, and with normalization off.
func TestPreparedBuildMatchesPairKernel(t *testing.T) {
	rng := mathx.NewRNG(13)
	optsCases := []Options{
		DetectionOptions(),
		DefaultOptions(),
		{MaxDelayFraction: 0.5, MaxDelayPoints: 4, Normalize: true, UseFFT: true},
		{MaxDelayFraction: 0.5, UseFFT: true, Normalize: true},
		{MaxDelayFraction: 0.3},
		{MaxDelayFraction: 0.3, UseFFT: true},
	}
	ref := NewScratch()
	for trial := 0; trial < 60; trial++ {
		kpis, dbs, n := 1+rng.Intn(4), 2+rng.Intn(5), 2+rng.Intn(70)
		u := randomGapUnit(rng, kpis, dbs, n+4)
		start := rng.Intn(5)
		var active []bool
		if rng.Intn(2) == 0 {
			active = make([]bool, dbs)
			for d := range active {
				active[d] = rng.Intn(3) > 0
			}
		}
		opts := optsCases[trial%len(optsCases)]
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("trial%d/opts%d/workers%d", trial, trial%len(optsCases), workers)
			mats, err := NewEngine(opts, workers).BuildMatrices(u, start, n, active)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k := 0; k < kpis; k++ {
				for i := 0; i < dbs; i++ {
					for j := i + 1; j < dbs; j++ {
						want := 0.0
						if active == nil || (active[i] && active[j]) {
							x, _ := u.Series(k, i).Window(start, n)
							y, _ := u.Series(k, j).Window(start, n)
							want, _ = KCDWithDelayScratch(x, y, opts, ref)
						}
						if got := mats[k].At(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: KPI %d pair (%d,%d) = %v, per-pair kernel %v", name, k, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBuildIntoWarmZeroAlloc pins the reused-output contract: a warm
// serial build into caller-owned matrices allocates nothing, gaps and
// masks included.
func TestBuildIntoWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	u := engineTestUnit(14, 5, 60)
	u.Series(3, 2).Values[10] = math.NaN()
	active := []bool{true, true, false, true, true}
	e := NewEngine(DetectionOptions(), 1)
	mats := NewMatrices(14, 5)
	if err := e.BuildInto(mats, u, 0, 60, active); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.BuildInto(mats, u, 0, 60, active); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm BuildInto allocates %v times per run, want 0", allocs)
	}
}

func TestBuildIntoValidatesShape(t *testing.T) {
	u := engineTestUnit(2, 3, 20)
	e := NewEngine(DetectionOptions(), 1)
	for name, call := range map[string]func() error{
		"matrix count": func() error { return e.BuildInto(NewMatrices(1, 3), u, 0, 20, nil) },
		"matrix size":  func() error { return e.BuildInto(NewMatrices(2, 4), u, 0, 20, nil) },
		"mask length":  func() error { return e.BuildInto(NewMatrices(2, 3), u, 0, 20, []bool{true}) },
		"nil measure":  func() error { return (&Engine{}).BuildInto(NewMatrices(2, 3), u, 0, 20, nil) },
	} {
		if call() == nil {
			t.Errorf("%s: mismatch accepted", name)
		}
	}
}
