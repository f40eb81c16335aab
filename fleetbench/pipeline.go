package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dbcatcher/internal/detect"
	"dbcatcher/internal/fleet"
	"dbcatcher/internal/incident"
	"dbcatcher/internal/kpi"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/rootcause"
	"dbcatcher/internal/scrape"
	"dbcatcher/internal/server"
	"dbcatcher/internal/store"
	"dbcatcher/internal/window"
)

const (
	// fleetConcurrency is the scheduler pool, sized for a 2-vCPU host.
	fleetConcurrency = 2
	// history is the per-unit verdict buffer (dbcatcherd -fleet-history).
	history = 128
)

// pipeline is one booted fleet daemon, wired as cmd/dbcatcherd's runFleet
// wires it.
type pipeline struct {
	tr       *tracer
	onlines  []*monitor.Online
	servers  []*server.Server
	mon      *fleet.Monitor
	agg      *incident.Aggregator
	st       *store.Store
	fp       *store.FleetPersister
	scrapers []*scrape.Scraper
	durable  []int // per-unit dedupe horizon at boot
	incBuf   []incident.Transition
	events   []incident.Event
	// eventCount counts incident events handed to the aggregator.
	eventCount int

	apiURL  string
	serveMu sync.Mutex
	serveMs []float64 // handler time of every API request, in arrival order
	httpSrv *http.Server
	served  chan struct{}
}

func newOnline() (*monitor.Online, error) {
	// The scheduler already fans out across units, so each judge runs a
	// serial correlation pool (the daemon's rule when the pool exceeds 1).
	return monitor.NewOnline(detect.Config{
		Thresholds: window.DefaultThresholds(kpi.Count),
		Workers:    1,
	}, kpi.Count, dbs)
}

// boot builds the monitors, the store (recovering dir when it holds a WAL),
// the incident stage and the API server. targets is nil unless the fleet
// scrapes; client is the scrapers' HTTP client (nil: the default).
func boot(w *spec, dir string, targets [][]string, client *http.Client, tr *tracer) (*pipeline, error) {
	p := &pipeline{tr: tr, served: make(chan struct{})}
	p.onlines = make([]*monitor.Online, w.units)
	p.servers = make([]*server.Server, w.units)
	p.durable = make([]int, w.units)
	pushers := make([]fleet.Pusher, w.units)
	for i := range pushers {
		o, err := newOnline()
		if err != nil {
			return nil, err
		}
		p.onlines[i] = o
		p.servers[i] = server.New(o, fmt.Sprintf("unit-%03d", i), history)
		pushers[i] = p.servers[i]
		if tr != nil {
			pushers[i] = tracedPusher{inner: p.servers[i], unit: i, tr: tr}
		}
	}
	p.agg = incident.New(incident.Config{})

	if w.wal {
		s := tr.begin(spanOpen, -1)
		st, rec, err := store.Open(dir, store.Options{})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		p.st = st
		p.fp = store.NewFleetPersister(st, rec)
		s = tr.begin(spanRestoreHistory, -1)
		for i, srv := range p.servers {
			srv.RestoreHistory(rec.UnitVerdictHistory(i))
		}
		tr.end(s)
		for i, o := range p.onlines {
			var ps monitor.Persister = p.fp.Unit(i)
			if tr != nil {
				ps = tracedPersister{inner: ps, unit: i, tr: tr}
			}
			o.SetPersister(ps)
			p.durable[i] = p.fp.DurableTick(i)
		}
		s = tr.begin(spanRestoreIncidents, -1)
		err = p.agg.Restore(rec.IncidentTransitions())
		tr.end(s)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("incident restore: %w", err)
		}
		if err := st.AdoptEpoch(rec.LatestEpoch()+1, 0); err != nil {
			st.Close()
			return nil, err
		}
		p.agg.SetPersist(func(t incident.Transition) { p.incBuf = append(p.incBuf, t) })
	}
	// The daemon attributes every closed cluster to a probable origin
	// (and logs it).
	p.agg.SetOnClusterClose(func(rep *incident.ClusterReport) { rootcause.AttributeFleet(rep) })

	var err error
	if p.mon, err = fleet.NewMonitor(pushers, fleetConcurrency); err != nil {
		return nil, p.closeWith(err)
	}
	api := server.NewFleet(p.servers)
	api.SetIncidents(p.agg)
	if p.fp != nil {
		api.SetPersistence(p.fp.Status)
	}
	if targets != nil {
		p.scrapers = make([]*scrape.Scraper, w.units)
		for i := range p.scrapers {
			p.scrapers[i], err = scrape.New(scrape.Config{
				Targets:     targets[i],
				KPIs:        kpi.Count,
				Format:      scrape.FormatProm,
				Concurrency: 1, // with the pool of 2: at most 2 requests in flight
				JitterSeed:  uint64(i)*1009 + 4,
				Client:      client,
			})
			if err != nil {
				return nil, p.closeWith(err)
			}
		}
		if err := p.mon.SetScrapers(p.scrapers); err != nil {
			return nil, p.closeWith(err)
		}
		api.SetScrape(func() interface{} {
			hs := make([]interface{}, len(p.scrapers))
			for i, s := range p.scrapers {
				hs[i] = s.Health()
			}
			return hs
		})
	}
	handler := p.timed(api.Handler())
	if tr != nil {
		handler = tr.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, p.closeWith(err)
	}
	p.apiURL = "http://" + ln.Addr().String()
	p.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(p.served)
		p.httpSrv.Serve(ln)
	}()
	return p, nil
}

// timed records how long the daemon takes to serve each API request, from
// the handler's entry to its return, leaving out the loopback hop and the
// client's scheduling, which belong to the benchmark's client.
func (p *pipeline) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(t0))
		p.serveMu.Lock()
		p.serveMs = append(p.serveMs, d)
		p.serveMu.Unlock()
	})
}

// round runs one fleet round the way the daemon's feeder does: the
// collection round, culprit attribution of abnormal verdicts, one incident
// observation and its journal record. samples is ignored when scraping.
func (p *pipeline) round(tick int, samples [][][]float64) ([]*monitor.Verdict, []scrape.RoundReport, error) {
	var verdicts []*monitor.Verdict
	var reports []scrape.RoundReport
	var err error
	s := p.tr.begin(spanRound, -1)
	if p.scrapers != nil {
		verdicts, reports, err = p.mon.ScrapeRound(context.Background())
	} else {
		verdicts, err = p.mon.Push(samples)
	}
	p.tr.end(s)
	if err != nil {
		return nil, reports, err
	}
	p.events = p.events[:0]
	for unit, v := range verdicts {
		if v != nil && v.Abnormal {
			p.events = append(p.events, incident.Event{
				Unit: unit, DB: v.AbnormalDB, KPIs: p.culprits(unit, v),
				Start: v.Start, End: v.Start + v.Size,
			})
		}
	}
	p.eventCount += len(p.events)
	p.incBuf = p.incBuf[:0]
	s = p.tr.begin(spanObserve, -1)
	p.agg.ObserveRound(tick, p.events)
	p.tr.end(s)
	if p.fp != nil && len(p.incBuf) > 0 {
		s = p.tr.begin(spanIncidentRound, -1)
		p.fp.RecordIncidentRound(tick, p.incBuf)
		p.tr.end(s)
	}
	return verdicts, reports, nil
}

// culprits attributes an abnormal verdict to the indicators that broke
// correlation, as dbcatcherd's deviatingKPIs does.
func (p *pipeline) culprits(unit int, v *monitor.Verdict) incident.KPISet {
	if v.AbnormalDB < 0 {
		return 0
	}
	o := p.onlines[unit]
	u, err := o.Processor().Window(v.Start, v.Size)
	if err != nil {
		return 0
	}
	s := p.tr.begin(spanExplain, -1)
	exps, err := detect.Explain(detect.NewProvider(u, nil, nil), detect.Config{Thresholds: o.Thresholds()}, 0, v.Size)
	p.tr.end(s)
	if err != nil || v.AbnormalDB >= len(exps) {
		return 0
	}
	var set incident.KPISet
	for _, k := range exps[v.AbnormalDB].Culprits() {
		set = set.With(int(k))
	}
	return set
}

// close stops the API server, then flushes and closes the store, as the
// daemon's graceful shutdown does.
func (p *pipeline) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.httpSrv.Shutdown(ctx)
	<-p.served
	if p.fp != nil {
		s := p.tr.begin(spanFlush, -1)
		ferr := p.fp.Flush()
		p.tr.end(s)
		if err == nil {
			err = ferr
		}
	}
	return p.closeWith(err)
}

// closeWith closes the store (if open) and returns err, or the close
// error when err is nil.
func (p *pipeline) closeWith(err error) error {
	if p.st != nil {
		if cerr := p.st.Close(); err == nil {
			err = cerr
		}
		p.st = nil
	}
	return err
}

// exporters are the scrape workload's databases: one loopback HTTP server
// per database, each serving its unit's scrape.Exporter.
type exporters struct {
	feeds   []*scrape.Feed
	targets [][]string
	servers []*http.Server
	wg      sync.WaitGroup
}

func startExporters(units int) (*exporters, error) {
	e := &exporters{feeds: make([]*scrape.Feed, units), targets: make([][]string, units)}
	for i := range e.feeds {
		e.feeds[i] = scrape.NewFeed(kpi.Count, dbs)
		h := scrape.NewExporter(e.feeds[i]).Handler()
		e.targets[i] = make([]string, dbs)
		for d := range e.targets[i] {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				e.stop()
				return nil, err
			}
			srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
			e.servers = append(e.servers, srv)
			e.targets[i][d] = fmt.Sprintf("http://%s/db/%d/kpis", ln.Addr(), d)
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				srv.Serve(ln)
			}()
		}
	}
	return e, nil
}

func (e *exporters) stop() {
	for _, s := range e.servers {
		s.Close()
	}
	e.wg.Wait()
}
