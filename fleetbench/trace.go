package main

import (
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dbcatcher/internal/fleet"
	"dbcatcher/internal/monitor"
	"dbcatcher/internal/window"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanRound            spanName = iota // fleet.Monitor.Push or ScrapeRound
	spanPush                             // fleet.Pusher.Push of one unit
	spanPersist                          // monitor.Persister.PersistVerdict (FleetPersister.Unit)
	spanExplain                          // detect.Explain
	spanObserve                          // incident.Aggregator.ObserveRound
	spanIncidentRound                    // store.FleetPersister.RecordIncidentRound
	spanFlush                            // store.FleetPersister.Flush
	spanOpen                             // store.Open (WAL recovery)
	spanRestoreHistory                   // server.Server.RestoreHistory over every unit
	spanRestoreIncidents                 // incident.Aggregator.Restore
	spanStatus                           // GET /api/fleet/status
	spanVerdicts                         // GET /api/fleet/verdicts
	spanIncidents                        // GET /api/incidents
	numSpans
)

// span is one timed call. A round's spans are kept in memory until the
// round ends, when they are folded into the per-layer histograms; parent
// indexes the round's span list.
type span struct {
	start, end int64 // ns since the tracer's origin
	parent     int32 // -1 for none
	name       spanName
	verdict    bool // push spans: the unit emitted a verdict this round
}

// tracer records spans around the pipeline's public seams. All methods are
// no-ops on a nil tracer, so untraced passes pay one nil check per seam.
type tracer struct {
	origin time.Time

	mu       sync.Mutex
	spans    []span
	roundIdx int32   // the current round's spanRound, parent of its push spans
	cur      []int32 // per unit: the unit's open push span (parent of its persist span)

	hist       [numSpans]histogram
	ingest     histogram // push spans that emitted no verdict
	judge      histogram // push spans that emitted a verdict
	scrapeSelf histogram // ScrapeRound minus the union of its push spans
	pushNs     int64
	roundNs    int64
	straggler  []float64 // per verdict round: max / mean unit push
	intervals  [][2]int64

	responses, notModified, responseBytes int
}

func newTracer(units int) *tracer {
	return &tracer{origin: time.Now(), cur: make([]int32, units)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index in the current round.
func (t *tracer) begin(name spanName, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int32(len(t.spans))
	switch name {
	case spanRound:
		t.roundIdx = i
	case spanPush:
		parent = t.roundIdx
	}
	t.spans = append(t.spans, span{start: now, parent: parent, name: name})
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// endRound folds the round's spans into the per-layer accumulators and
// starts the next round. verdictRound marks rounds where a unit judged.
func (t *tracer) endRound(verdictRound bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var roundSpan *span
	var maxPush, sumPush int64
	pushes := 0
	t.intervals = t.intervals[:0]
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		switch s.name {
		case spanPush:
			t.pushNs += d
			if s.verdict {
				t.judge.add(d)
			} else {
				t.ingest.add(d)
			}
			maxPush = max(maxPush, d)
			sumPush += d
			pushes++
			if s.parent == t.roundIdx {
				t.intervals = append(t.intervals, [2]int64{s.start, s.end})
			}
		case spanRound:
			roundSpan = s
			t.roundNs += d
		}
		t.hist[s.name].add(d)
	}
	if verdictRound && pushes > 0 && sumPush > 0 {
		t.straggler = append(t.straggler, float64(maxPush)/(float64(sumPush)/float64(pushes)))
	}
	if roundSpan != nil && len(t.intervals) > 0 {
		t.scrapeSelf.add(roundSpan.end - roundSpan.start - covered(t.intervals))
	}
	t.spans = t.spans[:0]
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// tracedPusher wraps a unit's fleet.Pusher (its server.Server).
type tracedPusher struct {
	inner fleet.Pusher
	unit  int
	tr    *tracer
}

func (p tracedPusher) Push(sample [][]float64) (*monitor.Verdict, error) {
	i := p.tr.begin(spanPush, -1)
	p.tr.cur[p.unit] = i
	v, err := p.inner.Push(sample)
	p.tr.mu.Lock()
	p.tr.spans[i].end = p.tr.now()
	p.tr.spans[i].verdict = v != nil
	p.tr.mu.Unlock()
	return v, err
}

// tracedPersister wraps the monitor.Persister FleetPersister.Unit returns.
// It runs inside the unit's Push, on the same goroutine.
type tracedPersister struct {
	inner monitor.Persister
	unit  int
	tr    *tracer
}

func (p tracedPersister) PersistVerdict(v *monitor.Verdict, ctx monitor.PersistContext) {
	i := p.tr.begin(spanPersist, p.tr.cur[p.unit])
	p.inner.PersistVerdict(v, ctx)
	p.tr.end(i)
}

func (p tracedPersister) PersistThresholds(t window.Thresholds, ctx monitor.PersistContext) {
	p.inner.PersistThresholds(t, ctx)
}

// handler times the fleet API's handlers and counts what they send.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanStatus
		switch {
		case strings.HasPrefix(r.URL.Path, "/api/fleet/verdicts"):
			name = spanVerdicts
		case strings.HasPrefix(r.URL.Path, "/api/incidents"):
			name = spanIncidents
		}
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		i := t.begin(name, -1)
		h.ServeHTTP(cw, r)
		t.end(i)
		t.mu.Lock()
		t.responses++
		t.responseBytes += cw.n
		if cw.code == http.StatusNotModified {
			t.notModified++
		}
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	code, n int
}

func (w *countingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// countingTransport counts scrape requests and response bytes below the
// scraper's HTTP client.
type countingTransport struct {
	mu             sync.Mutex
	requests, body int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	c.mu.Lock()
	c.requests++
	if err == nil && resp.ContentLength > 0 {
		c.body += resp.ContentLength
	}
	c.mu.Unlock()
	return resp, err
}

// histogram is a log-bucketed latency histogram with 1% bucket width, so
// the traced run keeps flat memory however long it measures.
type histogram struct {
	counts []uint32
	n      int
	sumNs  float64
}

const histStep = 0.01

var logStep = math.Log1p(histStep)

func (h *histogram) add(ns int64) {
	b := 0
	if ns > 1 {
		b = int(math.Log(float64(ns)) / logStep)
	}
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint32, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
	h.sumNs += float64(ns)
}

// quantile returns the q-quantile in nanoseconds (0 with no samples).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	seen := 0
	for b, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return math.Exp((float64(b) + 0.5) * logStep)
		}
	}
	return math.Exp(float64(len(h.counts)) * logStep)
}

func (h *histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumNs / float64(h.n)
}
