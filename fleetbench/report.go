package main

import (
	"fmt"
	"runtime"
)

// endToEnd reports the untraced run's metrics. Medians pool every sample
// of every pass. The p99s are printed with their sample counts but are not
// end-to-end metrics: the host's slow phases outlast a run and move a tail
// by more than any bound allows (see README.md).
func (r *runner) endToEnd() map[string]metric {
	a := &r.plain
	ticks := float64(a.unitTicks)
	verdictP99, verdictWindows := tailP99(a.verdictMs)
	statusP99, statusWindows := tailP99(r.serveMs)
	fmt.Printf("samples: %d passes, %d rounds, %d verdict rounds, %d API requests\n",
		a.passes, len(a.roundMs), len(a.verdictMs), len(r.serveMs))
	fmt.Printf("tails (unbounded): verdict p99 %.3f ms over %d windows, status p99 %.3f ms over %d windows\n",
		verdictP99, verdictWindows, statusP99, statusWindows)
	return map[string]metric{
		"unit_ticks_per_s":     {ticks / (float64(a.roundNs) / 1e9), "1/s"},
		"round_ms_p50":         {quantile(a.roundMs, 0.50), "ms"},
		"verdict_ms_p50":       {quantile(a.verdictMs, 0.50), "ms"},
		"cpu_us_per_unit_tick": {float64(a.cpuNs) / 1e3 / ticks, "us"},
		"allocs_per_unit_tick": {float64(a.mallocs) / ticks, "count"},
		"heap_live_mb":         {quantile(r.heapMB, 0.5), "MiB"},
		"setup_s":              {quantile(r.setupS, 0.5), "s"},
		"catchup_s":            {quantile(r.catchupS, 0.5), "s"},
		"status_ms_p50":        {quantile(r.serveMs, 0.50), "ms"},
		"detect_f1":            {r.f1.FMeasure(), "ratio"},
	}
}

// perLayer reports the traced run: per-layer figures from the traced
// passes, deterministic counts from pass 0, and the tracing overhead
// measured against the untraced passes interleaved with the traced ones.
func (r *runner) perLayer() map[string]metric {
	t, a := r.tr, &r.traced
	us := func(ns float64) float64 { return ns / 1e3 }
	msf := func(ns float64) float64 { return ns / 1e6 }
	perPass := func(x float64) float64 { return x / float64(a.passes) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	funnel := r.funnel
	verdicts := funnel["funnel.verdicts"]
	scrapeSelf := 0.0
	if r.w.scrape {
		scrapeSelf = msf(t.scrapeSelf.quantile(0.5))
	}
	var reqs, body float64
	if r.transport != nil {
		reqs, body = float64(r.transport.requests), float64(r.transport.body)
	}
	// The tails of the untraced passes interleaved with the traced ones.
	verdictP99, _ := tailP99(r.plain.verdictMs)
	statusP99, _ := tailP99(r.serveMs)
	straggler := 0.0
	for _, s := range t.straggler {
		straggler += s / float64(len(t.straggler))
	}
	m := map[string]metric{
		"monitor.ingest_us_p50":     {us(t.ingest.quantile(0.5)), "us"},
		"monitor.judge_ms_p50":      {msf(t.judge.quantile(0.5)), "ms"},
		"monitor.judge_ms_p99":      {msf(t.judge.quantile(0.99)), "ms"},
		"monitor.window_ticks_mean": {ratio(float64(r.verdictSize), verdicts), "ticks"},
		"monitor.verdicts":          {verdicts, "count"},
		"monitor.skipped":           {float64(r.skipped), "count"},

		"fleet.round_ms_p50":       {msf(t.hist[spanRound].quantile(0.5)), "ms"},
		"fleet.round_ms_p99":       {msf(t.hist[spanRound].quantile(0.99)), "ms"},
		"fleet.unit_busy_ratio":    {ratio(float64(t.pushNs), float64(t.roundNs)*fleetConcurrency), "ratio"},
		"fleet.straggler_ratio":    {straggler, "ratio"},
		"scrape.round_self_ms_p50": {scrapeSelf, "ms"},
		"scrape.requests":          {perPass(reqs), "count"},
		"scrape.bytes_per_request": {ratio(body, reqs), "bytes"},
		"scrape.retries":           {float64(r.retries), "count"},
		"scrape.missing_ratio":     {ratio(float64(r.missing), float64(r.scrapes)), "ratio"},

		"store.persist_us_p50":        {us(t.hist[spanPersist].quantile(0.5)), "us"},
		"store.persist_us_p99":        {us(t.hist[spanPersist].quantile(0.99)), "us"},
		"store.incident_round_us_p50": {us(t.hist[spanIncidentRound].quantile(0.5)), "us"},
		"store.flush_ms":              {msf(t.hist[spanFlush].quantile(0.5)), "ms"},
		"store.wal_bytes_per_verdict": {ratio(funnel["funnel.wal_bytes"], float64(r.walVerdicts)), "bytes"},
		"store.recovery_ms":           {msf(t.hist[spanOpen].quantile(0.5)), "ms"},
		"store.recovered_records":     {float64(r.recovered), "count"},
		"store.journal_suppressed":    {float64(r.suppressed), "count"},
		"server.restore_history_ms":   {msf(t.hist[spanRestoreHistory].quantile(0.5)), "ms"},
		"incident.restore_ms":         {msf(t.hist[spanRestoreIncidents].quantile(0.5)), "ms"},

		"detect.explain_us_p50":   {us(t.hist[spanExplain].quantile(0.5)), "us"},
		"detect.explain_us_p99":   {us(t.hist[spanExplain].quantile(0.99)), "us"},
		"detect.explain_calls":    {perPass(float64(t.hist[spanExplain].n)), "count"},
		"incident.observe_us_p50": {us(t.hist[spanObserve].quantile(0.5)), "us"},
		"incident.observe_us_p99": {us(t.hist[spanObserve].quantile(0.99)), "us"},

		"server.status_us_p50":    {us(t.hist[spanStatus].quantile(0.5)), "us"},
		"server.status_us_p99":    {us(t.hist[spanStatus].quantile(0.99)), "us"},
		"server.verdicts_us_p50":  {us(t.hist[spanVerdicts].quantile(0.5)), "us"},
		"server.incidents_us_p50": {us(t.hist[spanIncidents].quantile(0.5)), "us"},
		"server.status_304_ratio": {ratio(float64(t.notModified), float64(t.responses)), "ratio"},
		"server.response_bytes":   {ratio(float64(t.responseBytes), float64(t.responses)), "bytes"},
		"gc.cycles":               {perPass(float64(a.gcCycles)), "count"},
		"gc.pause_ms_total":       {perPass(float64(a.gcPauseNs) / 1e6), "ms"},

		"tail.verdict_ms_p99": {verdictP99, "ms"},
		"tail.status_ms_p99":  {statusP99, "ms"},

		"ops.attempted":        {float64(r.attempted), "count"},
		"ops.failed":           {float64(r.failed), "count"},
		"failed_ratio":         {ratio(float64(r.failed), float64(r.attempted)), "ratio"},
		"trace.overhead_ratio": {ratio(float64(a.roundNs)/float64(a.unitTicks), float64(r.plain.roundNs)/float64(r.plain.unitTicks)) - 1, "ratio"},
		"env.gomaxprocs":       {float64(runtime.GOMAXPROCS(0)), "count"},
		"env.num_cpu":          {float64(runtime.NumCPU()), "count"},
	}
	for k, v := range funnel {
		m[k] = metric{v, "count"}
	}
	m["funnel.wal_bytes"] = metric{funnel["funnel.wal_bytes"], "bytes"}
	return m
}
