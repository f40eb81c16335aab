package monitor

import (
	"math"
	"testing"

	"dbcatcher/internal/cluster"
	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/window"
	"dbcatcher/internal/workload"
)

// TestRingDirectRoundMatchesMaterialized pins the batch round's read path:
// judging straight from the rings gives the matrices, gap count, mean
// correlation and final states that materializing the window with
// WindowWithStats and building it with BuildMatrices gives, bit for bit —
// under dropped ticks and cells, an auto-deactivated database, window
// expansions, and a resync after the rings outran the judge.
func TestRingDirectRoundMatchesMaterialized(t *testing.T) {
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: 900, Seed: 31, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCollector(u.Series, workload.FaultPlan{
		Seed:         5,
		DropTickRate: 0.02,
		DropCellRate: 0.02,
		Silences:     []workload.Silence{{DB: 2, Start: 150, Length: 90}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newDegradedOnline(t)
	ref := correlate.NewEngine(correlate.DetectionOptions(), 1)
	var judged, degraded, masked, expanded, skipped int
	for tick := 0; ; tick++ {
		sample, ok := c.Next()
		if !ok {
			break
		}
		if tick == 500 {
			// Ingestion bypasses the judge until its round start is long
			// evicted; the next Push resynchronizes.
			for i := 0; i < 3*o.cfg.Flex.MaxWindow(); i++ {
				if err := o.Processor().Ingest(sample); err != nil {
					t.Fatal(err)
				}
			}
		}
		v, err := o.Push(sample)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if v == nil {
			continue
		}
		if v.Health == detect.HealthSkipped {
			skipped++
			continue
		}
		judged++
		var active []bool
		if h := o.Health(); anyTrue(h.AutoDeactivated) {
			active = make([]bool, len(h.AutoDeactivated))
			for d, down := range h.AutoDeactivated {
				active[d] = !down
			}
			masked++
		}
		win, stats, err := o.Processor().WindowWithStats(v.Start, v.Size)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		mats, err := ref.BuildMatrices(win, 0, v.Size, active)
		if err != nil {
			t.Fatal(err)
		}
		for k := range mats {
			for i := 0; i < mats[k].N; i++ {
				for j := i + 1; j < mats[k].N; j++ {
					if got, want := o.mats[k].At(i, j), mats[k].At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("tick %d KPI %d pair (%d,%d): ring-direct %v, materialized %v", tick, k, i, j, got, want)
					}
				}
			}
		}
		if v.GapCells != stats.Gaps {
			t.Fatalf("tick %d: GapCells %d, materialized window has %d", tick, v.GapCells, stats.Gaps)
		}
		if want := meanPairScore(mats, active); math.Float64bits(v.MeanCorr) != math.Float64bits(want) {
			t.Fatalf("tick %d: MeanCorr %v, want %v", tick, v.MeanCorr, want)
		}
		cfg := o.cfg
		cfg.Active = active
		states := detect.JudgeMatrices(mats, cfg, kpi.Count, 5)
		finals := detect.FinalizeStates(states, cfg.Flex, detect.RoundState(states) == window.Observable)
		for d := range finals {
			if v.States[d] != finals[d] {
				t.Fatalf("tick %d: states %v, materialized %v", tick, v.States, finals)
			}
		}
		if stats.Gaps > 0 {
			degraded++
		}
		if v.Expansions > 0 {
			expanded++
		}
	}
	// The scenario must actually reach every path it claims to cover.
	if judged == 0 || degraded == 0 || masked == 0 || expanded == 0 || skipped == 0 {
		t.Fatalf("coverage: judged %d, with gaps %d, masked %d, expanded %d, skipped %d",
			judged, degraded, masked, expanded, skipped)
	}
}

// TestOnlineWarmRoundAllocs pins the batch round's allocation contract: a
// warm round — its pushes, the ring-direct matrix build, judging and the
// verdict — allocates only the Verdict and its States.
func TestOnlineWarmRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const win = 20
	u, err := cluster.Simulate(cluster.Config{
		Name: "u", Ticks: win, Seed: 8, Profile: workload.TencentIrregular,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][][]float64, win)
	for i := range samples {
		samples[i] = make([][]float64, kpi.Count)
		for k := range samples[i] {
			samples[i][k] = make([]float64, 5)
			for d := range samples[i][k] {
				samples[i][k][d] = u.Series.Data[k][d].At(i)
			}
		}
	}
	samples[7][3][1] = math.NaN() // a gap cell keeps the gap paths warm too
	o, err := NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Flex:       window.FlexConfig{Initial: win, Max: win, ExhaustState: window.Abnormal},
		Workers:    1,
	}, kpi.Count, 5)
	if err != nil {
		t.Fatal(err)
	}
	var last *Verdict
	round := func() {
		for _, s := range samples {
			v, err := o.Push(s)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				last = v
			}
		}
	}
	round()
	round()
	last = nil
	allocs := testing.AllocsPerRun(20, round)
	if last == nil || last.Health != detect.HealthDegraded {
		t.Fatalf("round did not emit the expected degraded verdict: %+v", last)
	}
	if allocs != 2 {
		t.Fatalf("warm round allocates %v times, want 2 (the Verdict and its States)", allocs)
	}
}
