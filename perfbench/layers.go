package main

import (
	"math"
)

// ratio is a/b, or 0 when b is 0 (no attempts, no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routeMetric maps a route pattern onto its serve.handler_s metric.
var routeMetric = map[string]string{
	"GET /v1/tables/{id}":  "serve.handler_s.tables",
	"GET /v1/figures/{id}": "serve.handler_s.figures",
	"POST /v1/run":         "serve.handler_s.run",
}

// serveLayers derives the serve, stage-cache and per-stage layer
// metrics from two scrapes of one replica's /metrics. Stage times are
// per pipeline run.
func serveLayers(e *env, before, after promSnap) {
	for route, name := range routeMetric {
		l := map[string]string{"route": route}
		e.setLayer(name, ratio(delta(before, after, "rcpt_http_request_seconds_sum", l),
			delta(before, after, "rcpt_http_request_seconds_count", l)))
	}
	hits := delta(before, after, "rcpt_cache_hits_total", nil)
	misses := delta(before, after, "rcpt_cache_misses_total", nil)
	e.setLayer("serve.cache_hit_ratio", ratio(hits, hits+misses))
	e.setLayer("serve.not_modified", delta(before, after, "rcpt_http_requests_total", map[string]string{"code": "304"}))
	e.setLayer("serve.rejected", delta(before, after, "rcpt_admission_rejected_total", nil))
	runs := delta(before, after, "rcpt_pipeline_runs_total", nil)
	e.setLayer("serve.runs", runs)
	e.setLayer("serve.collapsed", delta(before, after, "rcpt_pipeline_collapsed_total", nil))
	e.setLayer("serve.run_cache_hits", delta(before, after, "rcpt_run_cache_hits_total", nil))
	e.setLayer("serve.run_s", ratio(delta(before, after, "rcpt_pipeline_run_seconds_sum", nil),
		delta(before, after, "rcpt_pipeline_run_seconds_count", nil)))

	sh := delta(before, after, "rcpt_stagecache_hits_total", nil)
	sm := delta(before, after, "rcpt_stagecache_misses_total", nil)
	e.setLayer("stagecache.hits", sh)
	e.setLayer("stagecache.misses", sm)
	e.setLayer("stagecache.hit_ratio", ratio(sh, sh+sm))
	e.setLayer("stagecache.stores", delta(before, after, "rcpt_stagecache_stores_total", nil))
	e.setLayer("stagecache.bytes", after.sum("rcpt_stagecache_bytes", nil))

	if runs > 0 {
		kinds := map[string]float64{}
		for _, s := range after {
			if s.name != "rcpt_pipeline_stage_seconds_sum" {
				continue
			}
			stage := s.labels["stage"]
			if k := stageKind(stage); k != "" {
				kinds[k] += delta(before, after, s.name, map[string]string{"stage": stage})
			}
		}
		for k, v := range kinds {
			e.setLayer(k, v/runs)
		}
	}
}

// clusterLayers adds one replica's cluster counters between two
// scrapes.
func clusterLayers(e *env, before, after promSnap) {
	e.addLayer("cluster.computes", delta(before, after, "rcpt_pipeline_runs_total", nil))
	e.addLayer("cluster.peer_fills", delta(before, after, "rcpt_cluster_peer_fills_total", map[string]string{"outcome": "ok"}))
	e.addLayer("cluster.stage_steals", delta(before, after, "rcpt_cluster_stage_steals_total", map[string]string{"outcome": "remote"}))
	e.addLayer("cluster.stage_steal_s", delta(before, after, "rcpt_cluster_stage_steal_seconds_sum", nil))
	e.addLayer("cluster.lease_requests", delta(before, after, "rcpt_cluster_lease_requests_total", nil))
	e.addLayer("cluster.gossip_sent", delta(before, after, "rcpt_cluster_gossip_sent_total", nil))
}

// maxGauge is the largest value of a gauge family across scrapes.
func maxGauge(snaps []promSnap, name string, match map[string]string) float64 {
	m := 0.0
	for _, s := range snaps {
		m = math.Max(m, s.sum(name, match))
	}
	return m
}
