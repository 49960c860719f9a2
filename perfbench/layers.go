package main

import (
	"sort"
	"time"
)

// simLayers reports the sim, core and dvs layers from the per-run
// timers the traced simulations accumulated.
func simLayers(o *outcome, t *tracer) {
	t.mu.Lock()
	s := t.sim
	t.mu.Unlock()
	self := s.runTime - s.policy - s.observer
	o.metrics["sim.runs"] = float64(s.runs)
	o.metrics["sim.decisions"] = float64(s.decisions)
	o.metrics["sim.engine_self_s"] = self.Seconds()
	if s.decisions > 0 {
		o.metrics["sim.ns_per_decision"] = float64(self.Nanoseconds()) / float64(s.decisions)
	}
	var coreSel time.Duration
	var coreN int64
	for spec, d := range s.sel {
		if isLpSHE(spec) {
			coreSel += d
			coreN += s.selects[spec]
		}
	}
	o.metrics["core.select_s"] = coreSel.Seconds()
	if coreN > 0 {
		o.metrics["core.ns_per_decision"] = float64(coreSel.Nanoseconds()) / float64(coreN)
	}
	if d := s.counters["decisions"]; d > 0 {
		o.metrics["core.fast_path_share"] = s.counters["decision_fast_path"] / d
	}
	o.metrics["core.slack_calls"] = s.counters["slack_calls"]
	if c := s.counters["slack_calls"]; c > 0 {
		o.metrics["core.avg_scan_len"] = s.counters["slack_scanned"] / c
	}
	for _, p := range []string{"nondvs", "static", "lpps", "cc", "la", "dra", "feedback"} {
		o.metrics["dvs."+p+".select_s"] = s.sel[p].Seconds()
	}
}

// selfTime is a span's duration minus the part of its interval that
// its children cover.
func selfTime(parent span, children ...span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.Start+c.Dur
		if a < parent.Start {
			a = parent.Start
		}
		if end := parent.Start + parent.Dur; b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.a > reach {
			covered += v.b - v.a
			reach = v.b
		} else if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return time.Duration(parent.Dur - covered)
}

// spanLayers reports the client, cluster and server layers from the
// request spans: handler times by route, and each layer's self time
// for requests that crossed it.
func spanLayers(o *outcome, spans []span) {
	type req struct{ client, cluster, server *span }
	byReq := map[string]*req{}
	routes := map[string]sample{}
	var clusterMs sample
	perNode := map[string]int{}
	for i := range spans {
		s := &spans[i]
		if s.Layer == "server" && s.Node != "" {
			// Every worker is seen (health probes at least), so a
			// worker that routed nothing still counts as 0.
			perNode[s.Node] += 0
			if s.Route == "simulate" || s.Route == "scenario" {
				perNode[s.Node]++
			}
		}
		if s.Req == "" {
			continue
		}
		r := byReq[s.Req]
		if r == nil {
			r = &req{}
			byReq[s.Req] = r
		}
		switch s.Layer {
		case "client":
			r.client = s
		case "cluster":
			r.cluster = s
			if s.Route == "simulate" {
				clusterMs = append(clusterMs, float64(s.Dur)/1e6)
			}
		case "server":
			r.server = s
			routes[s.Route] = append(routes[s.Route], float64(s.Dur)/1e6)
		}
	}
	var clientOver, hop, serverOver sample
	for _, r := range byReq {
		outer := r.server
		if r.cluster != nil {
			outer = r.cluster
		}
		if r.client != nil && outer != nil {
			clientOver = append(clientOver, float64(selfTime(*r.client, *outer))/1e6)
		}
		if r.cluster != nil && r.server != nil {
			hop = append(hop, float64(selfTime(*r.cluster, *r.server))/1e6)
		}
		if r.server != nil && r.server.Route == "simulate" && r.client != nil {
			serverOver = append(serverOver, float64(r.server.Dur-r.client.Child)/1e6)
		}
	}
	for _, route := range []string{"simulate", "scenario"} {
		o.metrics["server."+route+".handler_ms_p50"] = routes[route].median()
		o.metrics["server."+route+".handler_ms_p99"] = routes[route].quantile(0.99)
	}
	for _, route := range []string{"jobs.create", "jobs.checkpoint", "jobs.restore"} {
		o.metrics["server."+route+".handler_ms_p50"] = routes[route].median()
	}
	o.metrics["server.overhead_ms_p50"] = serverOver.median()
	o.metrics["cluster.handler_ms_p50"] = clusterMs.median()
	o.metrics["cluster.handler_ms_p99"] = clusterMs.quantile(0.99)
	o.metrics["cluster.hop_ms_p50"] = hop.median()
	o.metrics["client.overhead_ms_p50"] = clientOver.median()
	if len(perNode) > 0 {
		lo, hi := -1, 0
		for _, n := range perNode {
			if lo < 0 || n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		o.metrics["cluster.route_balance"] = float64(lo) / float64(hi)
	}
	o.metrics["trace.spans"] = float64(len(spans))
}
