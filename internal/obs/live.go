// LiveServer: the live/operational half of the observability layer. A run
// instrumented with a Registry is only inspectable post-hoc (manifest,
// expvar polling); LiveServer turns the registry into something you can
// watch — a bounded in-memory ring of periodic Registry.Snapshot() samples,
// served over HTTP as a JSON snapshot (/snapshot), a Server-Sent-Events
// stream (/stream), a dependency-free HTML dashboard (/), and the expvar
// page (/debug/vars), so a 25M-node implicit run or a multi-hour sweep is
// no longer a black box until it exits.
//
// The ring is fed by a Probe-driven sampler (Sampler): sampling happens
// synchronously inside the simulation loop's Tick, every N cycles, so the
// server runs zero goroutines of its own when nothing is listening and adds
// no per-event work beyond one modulus per cycle. Because Sample runs on
// the simulation goroutine, it may also safely read single-goroutine state
// such as an algebraic router's counters (RouterSource).
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// LiveSample is one periodic observation of a run: the registry snapshot at
// a simulated cycle, stamped with a monotone sequence number and wall time,
// plus the router's live counters when a RouterSource is attached.
type LiveSample struct {
	Seq     int64          `json:"seq"`
	Cycle   int            `json:"cycle"`
	UnixMs  int64          `json:"unix_ms"`
	Metrics map[string]any `json:"metrics"`
	Router  *RouterStats   `json:"router,omitempty"`
}

// DefaultLiveRing is the ring capacity NewLiveServer falls back to: enough
// history for a dashboard to plot trends, small enough to be irrelevant
// next to the simulator's own footprint (a sample is a few hundred bytes).
const DefaultLiveRing = 512

// LiveServer samples a Registry into a bounded ring and serves the ring
// over HTTP. Construct with NewLiveServer, attach Sampler(every) to the
// run's probe, and mount Handler on any listener. All exported methods are
// safe for concurrent use; Sample itself is typically called from exactly
// one goroutine (the simulation loop) but tolerates more.
type LiveServer struct {
	reg      *Registry
	routerFn func() RouterStats

	mu   sync.Mutex
	ring []LiveSample // fixed-capacity circular buffer
	head int          // index of the oldest sample
	n    int          // live samples in the ring
	seq  int64
	subs map[chan LiveSample]struct{}
}

// NewLiveServer returns a server sampling reg into a ring of ringCap
// samples (DefaultLiveRing when ringCap < 1).
func NewLiveServer(reg *Registry, ringCap int) *LiveServer {
	if ringCap < 1 {
		ringCap = DefaultLiveRing
	}
	return &LiveServer{
		reg:  reg,
		ring: make([]LiveSample, ringCap),
		subs: map[chan LiveSample]struct{}{},
	}
}

// RouterSource attaches a router-counter getter that Sample invokes
// synchronously on the sampling goroutine — safe for the single-goroutine
// counters of topo.Algebraic/FaultAware because the simulation loop is the
// only caller of both the router and the sampler. Set it at wiring time
// (before sampling starts), and re-point it between runs as the sweep swaps
// routers; nil detaches.
func (s *LiveServer) RouterSource(fn func() RouterStats) { s.routerFn = fn }

// liveSampler drives Sample from the run's probe: one modulus per cycle,
// no goroutine, nothing at all on non-sample cycles.
type liveSampler struct {
	NopProbe
	s     *LiveServer
	every int
}

func (ls *liveSampler) Tick(cycle int) {
	if cycle%ls.every == 0 {
		ls.s.Sample(cycle)
	}
}

// Sampler returns a Probe whose Tick snapshots the registry into the ring
// every `every` cycles (minimum 1). Attach it via Multi alongside the run's
// other collectors.
func (s *LiveServer) Sampler(every int) Probe {
	if every < 1 {
		every = 1
	}
	return &liveSampler{s: s, every: every}
}

// Sample takes one observation now: registry snapshot, optional router
// counters, wall-clock stamp. The sample is appended to the ring (evicting
// the oldest once full) and broadcast to every /stream subscriber; a
// subscriber whose channel is full skips this sample rather than stalling
// the simulation.
func (s *LiveServer) Sample(cycle int) {
	sm := LiveSample{
		Cycle:   cycle,
		UnixMs:  time.Now().UnixMilli(),
		Metrics: s.reg.Snapshot(),
	}
	if fn := s.routerFn; fn != nil {
		rs := fn()
		sm.Router = &rs
	}
	s.mu.Lock()
	s.seq++
	sm.Seq = s.seq
	if s.n < len(s.ring) {
		s.ring[(s.head+s.n)%len(s.ring)] = sm
		s.n++
	} else {
		s.ring[s.head] = sm
		s.head = (s.head + 1) % len(s.ring)
	}
	for ch := range s.subs {
		select {
		case ch <- sm:
		default:
		}
	}
	s.mu.Unlock()
}

// Latest returns the most recent sample, if any.
func (s *LiveServer) Latest() (LiveSample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return LiveSample{}, false
	}
	return s.ring[(s.head+s.n-1)%len(s.ring)], true
}

// History returns a copy of the ring, oldest to newest.
func (s *LiveServer) History() []LiveSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.historyLocked()
}

func (s *LiveServer) historyLocked() []LiveSample {
	out := make([]LiveSample, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	return out
}

// Handler returns the live mux:
//
//	/           the HTML dashboard (no external assets)
//	/snapshot   latest sample as JSON (?all=1 = the whole ring)
//	/stream     Server-Sent Events: ring history, then every new sample
//	/debug/vars the standard expvar page (the "sim" registry, memstats, …)
func (s *LiveServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveDashboard)
	mux.HandleFunc("/snapshot", s.serveSnapshot)
	mux.HandleFunc("/stream", s.serveStream)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func (s *LiveServer) serveDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, liveDashboardHTML)
}

func (s *LiveServer) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	if r.URL.Query().Get("all") != "" {
		enc.Encode(s.History())
		return
	}
	sm, ok := s.Latest()
	if !ok {
		http.Error(w, `{"error":"no samples yet"}`, http.StatusNotFound)
		return
	}
	enc.Encode(sm)
}

func (s *LiveServer) serveStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")

	// Subscribe and copy the history under one lock so the replay has no
	// gap: everything after the copied prefix arrives on the channel. The
	// buffer absorbs samples taken while the replay is still writing.
	ch := make(chan LiveSample, 64)
	s.mu.Lock()
	history := s.historyLocked()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}()

	send := func(sm LiveSample) bool {
		data, err := json.Marshal(sm)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, sm := range history {
		if !send(sm) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case sm := <-ch:
			if !send(sm) {
				return
			}
		}
	}
}

// liveDashboardHTML is the whole dashboard: no external scripts, fonts, or
// stylesheets, so it works on an air-gapped box and inside a curl-only
// container (curl /snapshot for the same data). It consumes /stream and
// plots counter *rates* (per wall second, from sample deltas), the queue
// depth gauge, latency percentiles from the latency histogram, and the
// router's cache hit rate.
const liveDashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>simulate: live run</title>
<style>
 body{font:13px/1.4 system-ui,sans-serif;margin:16px;background:#111;color:#ddd}
 h1{font-size:16px;margin:0 0 4px} #meta{color:#9a9;margin-bottom:12px}
 .grid{display:grid;grid-template-columns:repeat(auto-fit,minmax(380px,1fr));gap:14px}
 .card{background:#1b1b1b;border:1px solid #2c2c2c;border-radius:6px;padding:8px 10px}
 .card h2{font-size:12px;font-weight:600;margin:0 0 6px;color:#bbb}
 canvas{width:100%;height:130px;display:block}
 .legend{font-size:11px;color:#888;margin-top:4px}
 .legend b{font-weight:600}
</style></head><body>
<h1>simulate: live run</h1>
<div id="meta">waiting for samples&hellip;</div>
<div class="grid">
 <div class="card"><h2>packet rates (/s wall)</h2><canvas id="rates"></canvas>
  <div class="legend"><b style="color:#6c6">injected</b> &middot; <b style="color:#69f">delivered</b> &middot; <b style="color:#e66">dropped</b></div></div>
 <div class="card"><h2>queue depth (packets queued)</h2><canvas id="queue"></canvas>
  <div class="legend"><b style="color:#fa4">queued</b></div></div>
 <div class="card"><h2>latency percentiles (cycles)</h2><canvas id="lat"></canvas>
  <div class="legend"><b style="color:#6c6">p50</b> &middot; <b style="color:#fa4">p95</b> &middot; <b style="color:#e66">p99</b></div></div>
 <div class="card"><h2>router cache hit rate (%)</h2><canvas id="cache"></canvas>
  <div class="legend"><b style="color:#69f">hit rate</b></div></div>
</div>
<script>
"use strict";
const MAX = 600, samples = [];
const num = v => typeof v === "number" ? v : (v && typeof v.count === "number" ? v.count : 0);
function series(fn){ return samples.map(fn).filter(v => v !== null); }
function rate(key){
  const out = [];
  for (let i = 1; i < samples.length; i++){
    const a = samples[i-1], b = samples[i];
    const dt = (b.unix_ms - a.unix_ms) / 1000;
    if (dt <= 0) continue;
    out.push((num(b.metrics[key]) - num(a.metrics[key])) / dt);
  }
  return out;
}
function plot(id, lines, colors){
  const c = document.getElementById(id), dpr = devicePixelRatio || 1;
  const w = c.clientWidth, h = c.clientHeight;
  c.width = w * dpr; c.height = h * dpr;
  const g = c.getContext("2d"); g.scale(dpr, dpr); g.clearRect(0, 0, w, h);
  let max = 1e-9;
  for (const l of lines) for (const v of l) if (isFinite(v) && v > max) max = v;
  g.strokeStyle = "#333"; g.beginPath();
  for (let i = 1; i <= 3; i++){ g.moveTo(0, h*i/4); g.lineTo(w, h*i/4); }
  g.stroke();
  lines.forEach((l, li) => {
    if (l.length < 2) return;
    g.strokeStyle = colors[li]; g.lineWidth = 1.5; g.beginPath();
    l.forEach((v, i) => {
      const x = i/(l.length-1)*w, y = h - Math.min(v,max)/max*(h-6) - 3;
      i ? g.lineTo(x, y) : g.moveTo(x, y);
    });
    g.stroke();
  });
  g.fillStyle = "#777"; g.font = "10px system-ui";
  g.fillText(max >= 100 ? max.toFixed(0) : max.toPrecision(3), 4, 10);
}
function redraw(){
  const s = samples[samples.length-1];
  if (!s) return;
  const m = s.metrics, r = s.router;
  document.getElementById("meta").textContent =
    "cycle " + (m.cycle ?? "?") + " | sample #" + s.seq +
    " | injected " + num(m.injected) + " | delivered " + num(m.delivered) +
    " | dropped " + num(m.dropped) + (r ? " | cache " + (100*r.CacheHits/Math.max(1, r.CacheHits+r.CacheMisses)).toFixed(1) + "%" : "");
  plot("rates", [rate("injected"), rate("delivered"), rate("dropped")], ["#6c6", "#69f", "#e66"]);
  plot("queue", [series(x => num(x.metrics.queued))], ["#fa4"]);
  const lat = k => series(x => x.metrics.latency && typeof x.metrics.latency === "object" ? x.metrics.latency[k] : null);
  plot("lat", [lat("p50"), lat("p95"), lat("p99")], ["#6c6", "#fa4", "#e66"]);
  plot("cache", [series(x => x.router ? 100*x.router.CacheHits/Math.max(1, x.router.CacheHits+x.router.CacheMisses) : null)], ["#69f"]);
}
const es = new EventSource("/stream");
es.onmessage = e => {
  samples.push(JSON.parse(e.data));
  if (samples.length > MAX) samples.shift();
  redraw();
};
es.onerror = () => { document.getElementById("meta").textContent += " (stream closed - run finished?)"; };
</script></body></html>
`
