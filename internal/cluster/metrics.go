package cluster

import (
	"io"
	"time"

	"dvsslack/internal/obs"
)

// latencyBuckets mirror dvsd's HTTP latency histogram bounds so
// coordinator and worker latency distributions are comparable
// bucket-for-bucket.
var latencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// fleetMetrics aggregates the coordinator's counters on an
// obs.Registry (served as Prometheus text on /metrics.prom and folded
// into the /metrics JSON snapshot).
type fleetMetrics struct {
	reg   *obs.Registry
	start time.Time

	requests    *obs.CounterVec // endpoint -> count
	errors      *obs.CounterVec // endpoint -> non-2xx count
	httpLatency *obs.HistogramVec

	routed      *obs.CounterVec // worker -> requests routed to it
	failovers   *obs.CounterVec // worker -> requests failed over away from it
	retries     *obs.Counter    // re-routes past a shed/saturated worker (not marked down)
	proxyErrors *obs.Counter    // requests that exhausted every candidate worker

	jobsCreated  *obs.Counter
	jobsFinished *obs.Counter
	fanoutRuns   *obs.Counter // fleet-job runs fanned out to workers

	checkpoints *obs.Counter    // fleet-job checkpoints taken (API or drain)
	restores    *obs.CounterVec // fleet-job restores by outcome ("ok"/"error")
}

func newFleetMetrics(c *Coordinator) *fleetMetrics {
	m := &fleetMetrics{reg: obs.NewRegistry(), start: time.Now()}
	r := m.reg
	r.GaugeFunc("dvsfleet_uptime_seconds", "seconds since the coordinator started",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("dvsfleet_workers", "registered workers",
		func() float64 { return float64(c.workerCount()) })
	r.GaugeFunc("dvsfleet_workers_healthy", "workers currently in the healthy state",
		func() float64 { return float64(c.healthyCount()) })
	r.GaugeFunc("dvsfleet_ring_nodes", "workers currently owning ring keys",
		func() float64 { return float64(c.ring.Len()) })

	m.requests = r.CounterVec("dvsfleet_http_requests_total", "HTTP requests by endpoint", "endpoint")
	m.errors = r.CounterVec("dvsfleet_http_request_errors_total", "non-2xx HTTP responses by endpoint", "endpoint")
	m.httpLatency = r.HistogramVec("dvsfleet_http_request_seconds", "HTTP request wall time by endpoint",
		"endpoint", latencyBuckets)

	m.routed = r.CounterVec("dvsfleet_routed_total", "simulate requests routed, by worker", "worker")
	m.failovers = r.CounterVec("dvsfleet_failovers_total",
		"simulate requests failed over away from a worker after an error", "worker")
	m.retries = r.Counter("dvsfleet_retries_total",
		"simulate requests re-routed past a shed or saturated worker")
	m.proxyErrors = r.Counter("dvsfleet_proxy_errors_total",
		"simulate requests that exhausted every candidate worker")

	m.jobsCreated = r.Counter("dvsfleet_jobs_created_total", "fleet jobs accepted")
	m.jobsFinished = r.Counter("dvsfleet_jobs_finished_total", "fleet jobs reaching a terminal state")
	m.fanoutRuns = r.Counter("dvsfleet_fanout_runs_total", "fleet-job runs fanned out across workers")

	m.checkpoints = r.Counter("dvsfleet_checkpoints_total", "fleet-job checkpoints taken (pause or drain)")
	m.restores = r.CounterVec("dvsfleet_restores_total", "fleet-job restores by outcome", "outcome")
	return m
}

func (m *fleetMetrics) request(endpoint string, ok bool) {
	m.requests.With(endpoint).Inc()
	if !ok {
		m.errors.With(endpoint).Inc()
	}
}

func (m *fleetMetrics) httpDone(endpoint string, d time.Duration) {
	m.httpLatency.With(endpoint).Observe(d.Seconds())
}

func (m *fleetMetrics) writeProm(w io.Writer) error { return m.reg.WriteProm(w) }

// FleetSnapshot is the JSON document the coordinator's /metrics
// serves.
type FleetSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Workers        []WorkerInfo `json:"workers"`
	HealthyWorkers int          `json:"healthy_workers"`
	RingNodes      int          `json:"ring_nodes"`

	Requests map[string]uint64 `json:"requests"`
	Errors   map[string]uint64 `json:"errors,omitempty"`

	Routed      uint64 `json:"routed"`
	Failovers   uint64 `json:"failovers,omitempty"`
	Retries     uint64 `json:"retries,omitempty"`
	ProxyErrors uint64 `json:"proxy_errors,omitempty"`

	JobsCreated  uint64 `json:"jobs_created"`
	JobsFinished uint64 `json:"jobs_finished"`
	FanoutRuns   uint64 `json:"fanout_runs"`
}

// snapshot captures a consistent view of the counters.
func (m *fleetMetrics) snapshot(c *Coordinator) FleetSnapshot {
	s := FleetSnapshot{
		UptimeSec:      time.Since(m.start).Seconds(),
		Workers:        c.WorkerInfos(),
		HealthyWorkers: c.healthyCount(),
		RingNodes:      c.ring.Len(),
		Requests:       map[string]uint64{},
		Errors:         map[string]uint64{},
		Retries:        uint64(m.retries.Value()),
		ProxyErrors:    uint64(m.proxyErrors.Value()),
		JobsCreated:    uint64(m.jobsCreated.Value()),
		JobsFinished:   uint64(m.jobsFinished.Value()),
		FanoutRuns:     uint64(m.fanoutRuns.Value()),
	}
	m.requests.Each(func(label string, c *obs.Counter) { s.Requests[label] = uint64(c.Value()) })
	m.errors.Each(func(label string, c *obs.Counter) { s.Errors[label] = uint64(c.Value()) })
	m.routed.Each(func(_ string, c *obs.Counter) { s.Routed += uint64(c.Value()) })
	m.failovers.Each(func(_ string, c *obs.Counter) { s.Failovers += uint64(c.Value()) })
	return s
}
