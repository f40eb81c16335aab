package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	dmetrics "dbcatcher/internal/metrics"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/store"
)

const (
	// minPasses is the fewest passes a run makes; detect_f1 pools the
	// first minPasses, so it is fixed by the seed.
	minPasses = 8
	// refUnits is how many replay-32 units per pass are checked against
	// independent monitor.Online runs.
	refUnits = 4
	// probeRequests dashboard requests follow every replay and scrape pass,
	// against the idle daemon, so the API never competes with a round.
	probeRequests = 500
)

// accum collects one kind of pass (untraced or traced).
type accum struct {
	passes             int
	roundMs, verdictMs []float64
	roundNs, cpuNs     int64
	unitTicks          int64
	mallocs            uint64
	gcCycles           uint32
	gcPauseNs          uint64
}

type runner struct {
	w       *spec
	seed    uint64
	dir     string
	exp     *exporters
	samples [][][]float64

	plain, traced     accum
	tr                *tracer
	transport         *countingTransport
	setupS, catchupS  []float64
	heapMB            []float64
	serveMs           []float64
	attempted, failed int
	f1                dmetrics.Confusion

	// Pass 0's volume at each stage; deterministic for a seed.
	funnel      map[string]float64
	recovered   int
	suppressed  uint64
	walVerdicts uint64
	verdictSize int
	skipped     int
	retries     int
	missing     int
	scrapes     int
}

// passInput is one pass's generated streams, the reference verdicts the
// fleet's must equal (nil for unchecked units), and on restart the WAL
// image the pass boots on.
type passInput struct {
	units []unitInput
	refs  [][]monitor.Verdict
	image string
}

func run(w *spec, seed uint64, seconds time.Duration, trace bool, dir string) (*result, error) {
	r := &runner{w: w, seed: seed, dir: dir, samples: make([][][]float64, w.units)}
	for i := range r.samples {
		r.samples[i] = newSample()
	}
	if w.scrape {
		var err error
		if r.exp, err = startExporters(w.units); err != nil {
			return nil, err
		}
		defer r.exp.stop()
	}
	if trace {
		r.tr = newTracer(w.units)
		r.transport = &countingTransport{}
	}
	correct := true
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < seconds; n++ {
		in, err := r.prepare(n)
		if err != nil {
			return nil, fmt.Errorf("pass %d inputs: %w", n, err)
		}
		var tr *tracer
		if trace && n%2 == 0 {
			tr = r.tr
		}
		ok, err := r.pass(n, in, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		if !ok {
			correct = false
			break
		}
	}
	res := &result{Correct: correct, Attempted: r.attempted, Failed: r.failed}
	if trace {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	return res, nil
}

// prepare generates pass n's inputs and references, untimed.
func (r *runner) prepare(n int) (*passInput, error) {
	units, err := generate(r.w, r.seed, n)
	if err != nil {
		return nil, err
	}
	in := &passInput{units: units}
	if r.w.restartAt > 0 {
		in.image = filepath.Join(r.dir, fmt.Sprintf("image-%d", n))
		in.refs, err = r.uninterrupted(units, filepath.Join(r.dir, fmt.Sprintf("full-%d", n)), in.image)
		return in, err
	}
	checked := make([]int, 0, r.w.units)
	if r.w.units > refUnits && !r.w.scrape {
		step := r.w.units / refUnits
		for j := 0; j < refUnits; j++ {
			checked = append(checked, j*step+int((r.seed+uint64(n))%uint64(step)))
		}
	} else {
		for i := 0; i < r.w.units; i++ {
			checked = append(checked, i)
		}
	}
	refs, err := fleet.Map(len(checked), fleetConcurrency, func(j int) ([]monitor.Verdict, error) {
		o, err := newOnline()
		if err != nil {
			return nil, err
		}
		u := &units[checked[j]]
		sample := newSample()
		var out []monitor.Verdict
		for t := 0; t < r.w.ticks; t++ {
			u.fill(sample, t)
			v, err := o.Push(sample)
			if err != nil {
				return nil, err
			}
			if v != nil {
				out = append(out, *v)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	in.refs = make([][]monitor.Verdict, r.w.units)
	for j, u := range checked {
		in.refs[u] = refs[j]
	}
	return in, nil
}

// uninterrupted is the restart workload's untimed earlier run: a fresh
// daemon runs every tick of the pass. After tick restartAt-1 its WAL is
// synced and copied to image, the state a crash there would leave. The
// verdicts it emits are the uninterrupted stream the restarted pass must
// reproduce and journal exactly once.
func (r *runner) uninterrupted(units []unitInput, dir, image string) ([][]monitor.Verdict, error) {
	defer os.RemoveAll(dir)
	p, err := boot(r.w, dir, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	refs := make([][]monitor.Verdict, r.w.units)
	for tick := 0; tick < r.w.ticks; tick++ {
		if tick == r.w.restartAt {
			if err := p.fp.Flush(); err != nil {
				p.close()
				return nil, err
			}
			if err := copyDir(dir, image); err != nil {
				p.close()
				return nil, err
			}
		}
		for i := range units {
			units[i].fill(r.samples[i], tick)
		}
		verdicts, _, err := p.round(tick, r.samples)
		if err != nil {
			p.close()
			return nil, err
		}
		for u, v := range verdicts {
			if v != nil {
				refs[u] = append(refs[u], *v)
			}
		}
	}
	return refs, p.close()
}

// pass boots a pipeline, runs every tick closed loop, polls the API, shuts
// down and checks the verdicts. It reports false on a gate mismatch.
func (r *runner) pass(n int, in *passInput, tr *tracer) (bool, error) {
	w := r.w
	acc := &r.plain
	if tr != nil {
		acc = &r.traced
	}
	acc.passes++
	pdir := filepath.Join(r.dir, fmt.Sprintf("pass-%d", n))
	defer os.RemoveAll(pdir)
	var imageBytes int64
	if in.image != "" {
		defer os.RemoveAll(in.image)
		if err := copyDir(in.image, pdir); err != nil {
			return false, err
		}
		imageBytes = dirBytes(pdir)
	}
	var targets [][]string
	if r.exp != nil {
		targets = r.exp.targets
	}
	var client *http.Client
	if tr != nil && r.exp != nil {
		client = &http.Client{Transport: r.transport}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heapBase := ms0.HeapAlloc

	t0 := time.Now()
	p, err := boot(w, pdir, targets, client, tr)
	if err != nil {
		return false, fmt.Errorf("boot: %w", err)
	}
	booted := time.Now()
	r.setupS = append(r.setupS, booted.Sub(t0).Seconds())
	if n == 0 && p.st != nil {
		r.recovered = p.st.Metrics().RecoveredRecords
	}
	dash := newDashboard(p.apiURL, w.units)
	defer dash.close()

	fps := make([]uint64, w.units)
	verdicts := make([][]detect.Verdict, w.units)
	catchup := time.Duration(-1)
	runtime.ReadMemStats(&ms0)
	for tick := 0; tick < w.ticks; tick++ {
		for i := range in.units {
			in.units[i].fill(r.samples[i], tick)
			if r.exp != nil {
				if err := r.exp.feeds[i].Publish(tick, r.samples[i]); err != nil {
					p.close()
					return false, err
				}
			}
		}
		a0 := allocs()
		c0 := cpuTime()
		r0 := time.Now()
		vs, reports, err := p.round(tick, r.samples)
		dt := time.Since(r0)
		cpu := cpuTime() - c0
		acc.mallocs += allocs() - a0
		r.attempted++
		if err != nil {
			r.failed++
			p.close()
			return false, fmt.Errorf("round %d: %w", tick, err)
		}
		verdictRound := false
		for unit, v := range vs {
			if v == nil {
				continue
			}
			verdictRound = true
			r.attempted++
			if v.Health != detect.HealthOK {
				r.failed++
			}
			if catchup < 0 && v.Tick > p.durable[unit] {
				catchup = r0.Add(dt).Sub(booted)
			}
			fps[unit] = fingerprint(fps[unit], v)
			verdicts[unit] = append(verdicts[unit], v.Verdict)
		}
		for _, rep := range reports {
			r.attempted += dbs
			r.failed += rep.Missing
			if rep.Late {
				r.failed++
			}
			if n == 0 {
				r.missing += rep.Missing
				r.scrapes += dbs
			}
		}
		tr.endRound(verdictRound)
		acc.roundNs += int64(dt)
		acc.cpuNs += int64(cpu)
		acc.unitTicks += int64(w.units)
		acc.roundMs = append(acc.roundMs, ms(dt))
		if verdictRound {
			acc.verdictMs = append(acc.verdictMs, ms(dt))
		}
		// On restart the client polls after every live round, never
		// during one, so on two cores polls and judges do not contend.
		if w.restartAt > 0 && tick >= w.restartAt {
			dash.poll(tick)
		}
	}
	runtime.ReadMemStats(&ms1)
	acc.gcCycles += ms1.NumGC - ms0.NumGC
	acc.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	if w.restartAt == 0 {
		for j := 0; j < probeRequests; j++ {
			dash.poll(w.ticks)
		}
	}
	tr.endRound(false)
	p.serveMu.Lock()
	r.serveMs = append(r.serveMs, p.serveMs...)
	p.serveMu.Unlock()
	r.attempted += dash.attempted
	r.failed += dash.failed
	if catchup >= 0 {
		r.catchupS = append(r.catchupS, catchup.Seconds())
	}

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapMB = append(r.heapMB, (float64(ms1.HeapAlloc)-float64(heapBase))/(1<<20))
	if n < minPasses {
		for i, vs := range verdicts {
			c, err := detect.Evaluate(vs, in.units[i].labels)
			if err != nil {
				return false, fmt.Errorf("evaluate unit %d: %w", i, err)
			}
			r.f1.Merge(c)
		}
	}
	if n == 0 {
		r.countFunnel(p, verdicts)
	}
	if err := p.close(); err != nil {
		return false, fmt.Errorf("shutdown: %w", err)
	}
	if r.exp != nil {
		// A daemon's exit drops its scrape connections; the next pass
		// boots without them, as a restarted daemon would.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	tr.endRound(false)
	if n == 0 {
		r.funnel["funnel.wal_bytes"] = float64(dirBytes(pdir) - imageBytes)
	}
	return check(n, pdir, in, fps)
}

// countFunnel records pass 0's volume at each stage.
func (r *runner) countFunnel(p *pipeline, verdicts [][]detect.Verdict) {
	nv, abnormal := 0, 0
	for _, vs := range verdicts {
		nv += len(vs)
		for _, v := range vs {
			r.verdictSize += v.Size
			if v.Abnormal {
				abnormal++
			}
			if v.Health == detect.HealthSkipped {
				r.skipped++
			}
		}
	}
	s := p.agg.Status()
	r.funnel = map[string]float64{
		"funnel.samples":         float64(r.w.units * r.w.ticks),
		"funnel.verdicts":        float64(nv),
		"funnel.abnormal":        float64(abnormal),
		"funnel.incident_events": float64(p.eventCount),
		"funnel.incidents":       float64(uint64(s.OpenIncidents) + s.ClosedIncidents),
		"funnel.clusters":        float64(uint64(s.OpenClusters) + s.ClosedClusters),
		"funnel.wal_records":     0,
		"funnel.wal_bytes":       0,
	}
	if p.fp != nil {
		st := p.fp.Status().(store.FleetStatus)
		r.funnel["funnel.wal_records"] = float64(st.Store.Appends)
		r.suppressed = st.Suppressed
		r.walVerdicts = st.Verdicts
	}
	for _, sc := range p.scrapers {
		for _, th := range sc.Health().Targets {
			r.retries += th.Retries
		}
	}
}

// check is the correctness gate. Every checked unit's verdict stream must
// equal its reference: an independent monitor.Online run over the same
// inputs, or on restart the uninterrupted run, whose verdicts the WAL must
// then hold exactly once each across the restart cut.
func check(n int, pdir string, in *passInput, fps []uint64) (bool, error) {
	for u, ref := range in.refs {
		if ref == nil {
			continue
		}
		var want uint64
		for i := range ref {
			want = fingerprint(want, &ref[i])
		}
		if fps[u] != want {
			fmt.Fprintf(os.Stderr, "gate: pass %d unit %d verdict stream differs from its reference run\n", n, u)
			return false, nil
		}
	}
	if in.image == "" {
		return true, nil
	}
	st, rec, err := store.Open(pdir, store.Options{})
	if err != nil {
		return false, fmt.Errorf("reopen WAL: %w", err)
	}
	defer st.Close()
	for u, ref := range in.refs {
		got := rec.UnitVerdictHistory(u)
		if len(got) != len(ref) {
			fmt.Fprintf(os.Stderr, "gate: pass %d unit %d WAL holds %d verdicts across the restart, want %d\n", n, u, len(got), len(ref))
			return false, nil
		}
		for i := range got {
			if !sameRecord(&got[i], &ref[i]) {
				fmt.Fprintf(os.Stderr, "gate: pass %d unit %d WAL verdict %d (tick %d) differs from the uninterrupted run (tick %d)\n", n, u, i, got[i].Tick, ref[i].Tick)
				return false, nil
			}
		}
	}
	return true, nil
}

// fingerprint folds one verdict into a unit's running FNV-1a hash.
func fingerprint(h uint64, v *monitor.Verdict) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(v.Tick))
	mix(uint64(v.Start))
	mix(uint64(v.Size))
	mix(uint64(int64(v.AbnormalDB)))
	mix(uint64(v.Expansions))
	mix(uint64(v.GapCells))
	mix(uint64(v.Health))
	for _, s := range v.States {
		mix(uint64(s))
	}
	if !math.IsNaN(v.MeanCorr) {
		mix(math.Float64bits(v.MeanCorr))
	}
	return h
}

// sameRecord compares a WAL-recovered verdict with a reference verdict on
// every field the journal stores.
func sameRecord(a, b *monitor.Verdict) bool {
	if a.Tick != b.Tick || a.Start != b.Start || a.Size != b.Size || a.Abnormal != b.Abnormal ||
		a.AbnormalDB != b.AbnormalDB || a.Expansions != b.Expansions || a.GapCells != b.GapCells ||
		a.Health != b.Health || len(a.States) != len(b.States) {
		return false
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			return false
		}
	}
	return true
}

// dashboard is the one API client: it cycles through the fleet status
// page (plain, then conditional), one unit's new verdicts, and the
// incident page, over one keep-alive connection. Latency is taken inside
// the daemon (pipeline.timed); the client counts failures.
type dashboard struct {
	client            *http.Client
	base              string
	n                 int
	etag              string
	since             []int
	attempted, failed int
}

func newDashboard(base string, units int) *dashboard {
	return &dashboard{
		client: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:   base, etag: `"0"`, since: make([]int, units),
	}
}

func (d *dashboard) poll(tick int) {
	path := "/api/fleet/status"
	conditional := false
	switch d.n % 4 {
	case 1:
		conditional = true
	case 2:
		u := (d.n / 4) % len(d.since)
		path = fmt.Sprintf("/api/fleet/verdicts?unit=%d&since=%d", u, d.since[u])
		d.since[u] = tick
	case 3:
		path = "/api/incidents"
	}
	d.n++
	d.attempted++
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		d.failed++
		return
	}
	if conditional {
		req.Header.Set("If-None-Match", d.etag)
	}
	resp, err := d.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil || (resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotModified) {
		d.failed++
		return
	}
	if e := resp.Header.Get("ETag"); e != "" {
		d.etag = e
	}
}

func (d *dashboard) close() { d.client.CloseIdleConnections() }

// allocs reads the cumulative heap allocation count without stopping the
// world, so it can bracket every round and leave the polls out.
func allocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// windowSamples is the window a tail percentile is taken over: the p99 of
// 1000 samples has ten beyond it.
const windowSamples = 1000

// tailP99 splits xs, in the order measured, into consecutive windows of
// windowSamples (the remainder joins the last) and returns the median of
// the windows' p99s, and the window count. A neighbour's burst that slows
// a minority of windows then moves the figure as little as it moves a
// median; a slowdown of the program moves every window. With fewer than
// windowSamples samples it is the pooled p99.
func tailP99(xs []float64) (float64, int) {
	k := max(len(xs)/windowSamples, 1)
	p99s := make([]float64, k)
	for i := range p99s {
		end := (i + 1) * windowSamples
		if i == k-1 {
			end = len(xs)
		}
		p99s[i] = quantile(append([]float64(nil), xs[i*windowSamples:end]...), 0.99)
	}
	return quantile(p99s, 0.5), k
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
