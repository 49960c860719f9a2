package server

import (
	"io"
	"time"

	"dvsslack/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the latency
// histograms, exponentially spaced from 100µs to ~100s.
var latencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// metrics aggregates the daemon's operational counters on the shared
// obs.Registry: every figure is scrapeable as Prometheus text via
// /metrics.prom and also folded into the legacy /metrics JSON
// snapshot (whose shape predates the registry and is kept
// byte-compatible).
type metrics struct {
	reg   *obs.Registry
	start time.Time

	requests    *obs.CounterVec // endpoint label -> count
	errors      *obs.CounterVec // endpoint label -> non-2xx count
	httpLatency *obs.HistogramVec

	simsRun         *obs.Counter // fresh simulations executed
	simsFailed      *obs.Counter // simulations that returned an error
	simsAudited     *obs.Counter // fresh simulations run under the audit oracle
	auditViolations *obs.Counter // total violations those audits reported
	simSeconds      *obs.Counter // total simulated time of fresh runs
	busySeconds     *obs.Counter // total wall-clock spent simulating (sums across workers)

	queueDepth   *obs.Gauge // runnable work items waiting for a worker
	inFlight     *obs.Gauge // work items currently executing
	jobsCreated  *obs.Counter
	jobsFinished *obs.Counter

	policyLatency *obs.HistogramVec // fresh-run wall latency by policy

	scenariosRun *obs.Counter // scenario documents executed to a verdict

	checkpoints *obs.Counter    // job checkpoints taken (pause, drain, or auto)
	restores    *obs.CounterVec // job restores by outcome ("ok"/"error")

	shed          *obs.Counter    // sync requests refused by admission control
	panics        *obs.Counter    // handler panics converted to 500s
	reqTimeouts   *obs.Counter    // requests that hit their deadline
	sseDropped    *obs.Counter    // SSE consumers dropped for slow/failed writes
	sseLagged     *obs.Counter    // SSE events lost to full subscriber buffers
	chaosInjected *obs.CounterVec // injected fault counts by class (chaos mode)
}

// newMetrics builds the registry. The cache exposes its own lifetime
// counters, so its metrics are scrape-time reads rather than copies.
func newMetrics(workers int, cache *resultCache) *metrics {
	m := &metrics{reg: obs.NewRegistry(), start: time.Now()}
	r := m.reg
	r.GaugeFunc("dvsd_uptime_seconds", "seconds since the daemon started",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("dvsd_workers", "simulation worker-pool size",
		func() float64 { return float64(workers) })

	m.requests = r.CounterVec("dvsd_http_requests_total", "HTTP requests by endpoint", "endpoint")
	m.errors = r.CounterVec("dvsd_http_request_errors_total", "non-2xx HTTP responses by endpoint", "endpoint")
	m.httpLatency = r.HistogramVec("dvsd_http_request_seconds", "HTTP request wall time by endpoint",
		"endpoint", latencyBuckets)

	m.simsRun = r.Counter("dvsd_sims_total", "fresh (non-cached) simulations executed")
	m.simsFailed = r.Counter("dvsd_sim_failures_total", "simulations that returned an error")
	m.simsAudited = r.Counter("dvsd_sims_audited_total", "fresh simulations run under the audit oracle")
	m.auditViolations = r.Counter("dvsd_audit_violations_total", "invariant violations reported by audited runs")
	m.simSeconds = r.Counter("dvsd_sim_simulated_seconds_total", "simulated time covered by fresh runs")
	m.busySeconds = r.Counter("dvsd_sim_busy_seconds_total", "wall-clock spent simulating, summed across workers")

	m.queueDepth = r.Gauge("dvsd_queue_depth", "runnable work items waiting for a worker")
	m.inFlight = r.Gauge("dvsd_inflight_runs", "work items currently executing")
	m.jobsCreated = r.Counter("dvsd_jobs_created_total", "batch jobs accepted")
	m.jobsFinished = r.Counter("dvsd_jobs_finished_total", "batch jobs reaching a terminal state")

	m.policyLatency = r.HistogramVec("dvsd_policy_run_seconds", "fresh-run wall latency by policy",
		"policy", latencyBuckets)

	m.scenariosRun = r.Counter("dvsd_scenarios_total", "scenario documents executed to a verdict")

	m.checkpoints = r.Counter("dvsd_checkpoints_total", "job checkpoints taken (pause, drain, or auto)")
	m.restores = r.CounterVec("dvsd_restores_total", "job restores by outcome", "outcome")

	m.shed = r.Counter("dvsd_shed_total", "synchronous requests refused by admission control (429)")
	m.panics = r.Counter("dvsd_panics_total", "handler panics recovered into 500 responses")
	m.reqTimeouts = r.Counter("dvsd_request_timeouts_total", "requests that exhausted their deadline before completing")
	m.sseDropped = r.Counter("dvsd_sse_dropped_total", "SSE subscribers dropped for slow or failed writes")
	m.sseLagged = r.Counter("dvsd_sse_lagged_events_total", "SSE progress events lost to full subscriber buffers")
	m.chaosInjected = r.CounterVec("dvsd_chaos_injected_total", "faults injected by the chaos middleware", "fault")

	r.GaugeFunc("dvsd_cache_entries", "result-cache entries",
		func() float64 { return float64(cache.Len()) })
	r.CounterFunc("dvsd_cache_hits_total", "result-cache hits",
		func() float64 { h, _ := cache.Stats(); return float64(h) })
	r.CounterFunc("dvsd_cache_misses_total", "result-cache misses",
		func() float64 { _, mi := cache.Stats(); return float64(mi) })
	return m
}

func (m *metrics) request(endpoint string, ok bool) {
	m.requests.With(endpoint).Inc()
	if !ok {
		m.errors.With(endpoint).Inc()
	}
}

// httpDone records one instrumented request's wall time.
func (m *metrics) httpDone(endpoint string, d time.Duration) {
	m.httpLatency.With(endpoint).Observe(d.Seconds())
}

func (m *metrics) enqueue(delta int) { m.queueDepth.Add(float64(delta)) }

func (m *metrics) running(delta int) { m.inFlight.Add(float64(delta)) }

// auditDone records one audited simulation and its violation count.
func (m *metrics) auditDone(violations int) {
	m.simsAudited.Inc()
	m.auditViolations.Add(float64(violations))
}

// simDone records one fresh (non-cached) simulation.
func (m *metrics) simDone(policy string, simTime float64, wall time.Duration, err error) {
	m.simsRun.Inc()
	if err != nil {
		m.simsFailed.Inc()
		return
	}
	m.simSeconds.Add(simTime)
	m.busySeconds.Add(wall.Seconds())
	m.policyLatency.With(policy).Observe(wall.Seconds())
}

// writeProm renders the Prometheus text exposition (/metrics.prom).
func (m *metrics) writeProm(w io.Writer) error { return m.reg.WriteProm(w) }

// HistogramSnapshot is the wire form of one latency histogram.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	MeanSec float64           `json:"mean_sec"`
	P50Sec  float64           `json:"p50_sec"`
	P99Sec  float64           `json:"p99_sec"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// MetricsSnapshot is the JSON document /metrics serves.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests map[string]uint64 `json:"requests"`
	Errors   map[string]uint64 `json:"errors,omitempty"`

	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	Workers    int `json:"workers"`

	SimsRun    uint64  `json:"sims_run"`
	SimsFailed uint64  `json:"sims_failed"`
	SimSeconds float64 `json:"sim_seconds"`
	// SimsAudited counts fresh runs executed under the audit oracle;
	// AuditViolations sums the invariant breaches they reported (any
	// non-zero value here means the engine, a policy, or the oracle
	// itself has a bug worth a reproducer).
	SimsAudited     uint64 `json:"sims_audited"`
	AuditViolations uint64 `json:"audit_violations"`
	// SimSpeedup is simulated seconds per wall-clock second of
	// simulation work (summed across workers): the throughput figure
	// of merit of the daemon. Zero until the first fresh run
	// completes (never a division by a zero denominator).
	SimSpeedup float64 `json:"sim_speedup"`

	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses), 0 when no lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`

	JobsCreated  uint64 `json:"jobs_created"`
	JobsFinished uint64 `json:"jobs_finished"`

	// Checkpoint/restore counters (omitted while zero so the snapshot
	// shape is unchanged on daemons not using checkpoints).
	Checkpoints uint64            `json:"checkpoints,omitempty"`
	Restores    map[string]uint64 `json:"restores,omitempty"`

	// Resilience counters (omitted while zero so the pre-resilience
	// snapshot shape is preserved byte for byte on a quiet daemon).
	Shed            uint64 `json:"shed,omitempty"`
	Panics          uint64 `json:"panics,omitempty"`
	RequestTimeouts uint64 `json:"request_timeouts,omitempty"`
	SSEDropped      uint64 `json:"sse_dropped,omitempty"`
	SSELagged       uint64 `json:"sse_lagged,omitempty"`

	// PolicyLatency maps policy name to its fresh-run wall-clock
	// latency histogram.
	PolicyLatency map[string]HistogramSnapshot `json:"policy_latency,omitempty"`
}

// snapshot captures a consistent view of the counters.
func (m *metrics) snapshot(workers int, cache *resultCache) MetricsSnapshot {
	hits, misses := cache.Stats()
	s := MetricsSnapshot{
		UptimeSec:       time.Since(m.start).Seconds(),
		Requests:        map[string]uint64{},
		Errors:          map[string]uint64{},
		QueueDepth:      int(m.queueDepth.Value()),
		InFlight:        int(m.inFlight.Value()),
		Workers:         workers,
		SimsRun:         uint64(m.simsRun.Value()),
		SimsFailed:      uint64(m.simsFailed.Value()),
		SimSeconds:      m.simSeconds.Value(),
		SimsAudited:     uint64(m.simsAudited.Value()),
		AuditViolations: uint64(m.auditViolations.Value()),
		CacheEntries:    cache.Len(),
		CacheHits:       hits,
		CacheMisses:     misses,
		JobsCreated:     uint64(m.jobsCreated.Value()),
		JobsFinished:    uint64(m.jobsFinished.Value()),
		Shed:            uint64(m.shed.Value()),
		Panics:          uint64(m.panics.Value()),
		RequestTimeouts: uint64(m.reqTimeouts.Value()),
		SSEDropped:      uint64(m.sseDropped.Value()),
		SSELagged:       uint64(m.sseLagged.Value()),
	}
	m.requests.Each(func(label string, c *obs.Counter) {
		s.Requests[label] = uint64(c.Value())
	})
	m.errors.Each(func(label string, c *obs.Counter) {
		s.Errors[label] = uint64(c.Value())
	})
	s.Checkpoints = uint64(m.checkpoints.Value())
	m.restores.Each(func(label string, c *obs.Counter) {
		if s.Restores == nil {
			s.Restores = map[string]uint64{}
		}
		s.Restores[label] = uint64(c.Value())
	})
	// Derived ratios guard their denominators: a zero-traffic daemon
	// reports 0, not NaN (which would also fail JSON encoding).
	if busy := m.busySeconds.Value(); busy > 0 {
		s.SimSpeedup = s.SimSeconds / busy
	}
	if total := hits + misses; total > 0 {
		s.CacheHitRate = float64(hits) / float64(total)
	}
	m.policyLatency.Each(func(name string, h *obs.Histogram) {
		hs := h.Snapshot()
		if s.PolicyLatency == nil {
			s.PolicyLatency = map[string]HistogramSnapshot{}
		}
		s.PolicyLatency[name] = HistogramSnapshot{
			Count:   hs.Count,
			MeanSec: hs.Mean(),
			P50Sec:  hs.Quantile(0.50),
			P99Sec:  hs.Quantile(0.99),
		}
	})
	return s
}
