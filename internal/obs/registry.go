// Concurrency-safe metrics registry: the serving-side half of the
// observability layer. The collectors in this package are single-run,
// single-goroutine objects; a registry is instead read while it is written.
// Its traffic is one writer at a time (cmd/simulate's registry probe, fed
// by one lane or by the coordinator's probe replay; cmd/ipgen's build
// recorder, called between levels on the build goroutine) plus concurrent
// readers (the expvar handler and LiveServer.Sample). Atomic counters and
// gauges and mutex-guarded histograms serve that, along with expvar export
// for live inspection and a JSON run manifest that snapshots everything
// (config, seed, stats, percentiles, router counters) into one
// machine-readable record of a run.
package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (concurrency-safe).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value (concurrency-safe).
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a LatencyHist safe for concurrent use: Observe locks and adds,
// Snapshot locks and copies. The zero value is ready to use.
type Hist struct {
	mu sync.Mutex
	h  LatencyHist
}

// Observe records one sample (negative values clamp to 0).
func (h *Hist) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(int(v))
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy, which answers Quantile, Mean, Max
// and WriteText without further locking.
func (h *Hist) Snapshot() *LatencyHist {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.h
	out.count = append([]int64(nil), h.h.count...)
	return &out
}

// Registry is a named collection of counters, gauges, and histograms.
// Lookups take a mutex (they happen once per metric, at wiring time); the
// returned metric objects are safe to update concurrently. The zero value
// is ready to use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Hist{}
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time view of every metric: counters and
// gauges by value, histograms as {count, mean, p50, p95, p99, max}
// summaries. Keys are the registered names; the map is sorted-stable when
// marshaled (encoding/json sorts map keys).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Hist, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := map[string]any{}
	for k, c := range counters {
		out[k] = c.Value()
	}
	for k, g := range gauges {
		out[k] = g.Value()
	}
	for k, h := range hists {
		s := h.Snapshot()
		p50, p95, p99, max := s.Summary()
		out[k] = map[string]any{
			"count": s.Count(), "mean": s.Mean(),
			"p50": p50, "p95": p95, "p99": p99, "max": max,
		}
	}
	return out
}

// expvarPublished guards expvar.Publish, which panics on duplicate names —
// a process (or test binary) may build registries repeatedly under one
// expvar namespace, so re-publishing a name silently rebinds nothing and
// keeps the first registration.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exposes the registry under the given expvar name as a
// single Func variable whose value is Snapshot(). Safe to call repeatedly;
// only the first call for a name binds (expvar forbids re-publication).
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
