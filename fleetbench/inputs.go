package main

import (
	"fmt"

	"dbcatcher/internal/anomaly"
	"dbcatcher/internal/cluster"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/mathx"
	"dbcatcher/internal/timeseries"
	"dbcatcher/internal/workload"
)

// anomalyRatio is the injected share of abnormal ticks, near the upper end
// of the paper's Table III datasets so every pass has incidents to cluster.
const anomalyRatio = 0.05

// unitInput is one unit's generated stream and its ground truth.
type unitInput struct {
	series *timeseries.UnitSeries
	labels *anomaly.Labels
}

// generate simulates every unit's stream for one pass with the daemon's
// default profile and injects anomaly episodes. Every pass of a run gets
// fresh streams, derived from the seed and the pass number, so a run's
// tail latencies cover many distinct rounds rather than repeating one
// pass's few slowest.
func generate(w *spec, seed uint64, pass int) ([]unitInput, error) {
	return fleet.Map(w.units, fleetConcurrency, func(i int) (unitInput, error) {
		s := (seed*1000003+uint64(pass))*7919 + uint64(i)*1009
		u, err := cluster.Simulate(cluster.Config{
			Name: fmt.Sprintf("unit-%03d", i), Databases: dbs, Ticks: w.ticks,
			Profile: workload.TencentIrregular, Seed: s,
		})
		if err != nil {
			return unitInput{}, err
		}
		events := anomaly.GenerateSchedule(anomaly.ScheduleConfig{
			Ticks: w.ticks, Databases: dbs, TargetRatio: anomalyRatio,
		}, mathx.NewRNG(s+1))
		labels, err := anomaly.Inject(u, events, mathx.NewRNG(s+2))
		if err != nil {
			return unitInput{}, err
		}
		return unitInput{series: u.Series, labels: labels}, nil
	})
}

// fill copies tick t of a unit's stream into sample[kpi][db], the
// collector layout Push takes (the judge copies what it keeps).
func (in *unitInput) fill(sample [][]float64, t int) {
	for k := 0; k < kpi.Count; k++ {
		row := sample[k]
		for d := range row {
			row[d] = in.series.Data[k][d].Values[t]
		}
	}
}

func newSample() [][]float64 {
	s := make([][]float64, kpi.Count)
	for k := range s {
		s[k] = make([]float64, dbs)
	}
	return s
}
