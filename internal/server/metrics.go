package server

import (
	"net/http"
	"strconv"

	"repro/internal/promtext"
)

// handleMetrics renders the service counters in the Prometheus text
// exposition format (gauges and counters only, no labels), so both
// humans with curl and standard scrapers can read queue pressure, cache
// effectiveness, and worker utilization.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	busy := s.busyWorkers.Load()
	util := float64(busy) / float64(s.workers)
	s.mu.Lock()
	cacheSize := len(s.cache)
	s.mu.Unlock()
	sc := s.store.Counters()

	promtext.Serve(w, append([]promtext.Metric{
		{Name: "mosaicd_queue_depth", Help: "Jobs accepted and waiting for a worker.", Type: "gauge", Value: strconv.Itoa(len(s.queue))},
		{Name: "mosaicd_queue_capacity", Help: "Bounded queue size; submissions beyond it get 429.", Type: "gauge", Value: strconv.Itoa(cap(s.queue))},
		{Name: "mosaicd_workers", Help: "Size of the simulation worker pool.", Type: "gauge", Value: strconv.Itoa(s.workers)},
		{Name: "mosaicd_workers_busy", Help: "Workers currently executing a simulation.", Type: "gauge", Value: strconv.FormatInt(busy, 10)},
		{Name: "mosaicd_worker_utilization", Help: "Busy workers / pool size, in [0, 1].", Type: "gauge", Value: formatFloat(util)},
		{Name: "mosaicd_jobs_accepted_total", Help: "Submissions enqueued as new jobs.", Type: "counter", Value: strconv.FormatUint(s.accepted.Load(), 10)},
		{Name: "mosaicd_jobs_rejected_total", Help: "Submissions rejected with 429 (queue full).", Type: "counter", Value: strconv.FormatUint(s.rejected.Load(), 10)},
		{Name: "mosaicd_runs_completed_total", Help: "Simulations finished successfully.", Type: "counter", Value: strconv.FormatUint(s.runsCompleted.Load(), 10)},
		{Name: "mosaicd_runs_failed_total", Help: "Simulations that errored, panicked, or hit their deadline.", Type: "counter", Value: strconv.FormatUint(s.runsFailed.Load(), 10)},
		{Name: "mosaicd_runs_canceled_total", Help: "Jobs canceled by request before completing.", Type: "counter", Value: strconv.FormatUint(s.runsCanceled.Load(), 10)},
		{Name: "mosaicd_cache_hits_total", Help: "Submissions served by an existing identical job.", Type: "counter", Value: strconv.FormatUint(hits, 10)},
		{Name: "mosaicd_cache_misses_total", Help: "Submissions that required a new simulation.", Type: "counter", Value: strconv.FormatUint(misses, 10)},
		{Name: "mosaicd_cache_hit_rate", Help: "Hits / (hits + misses), in [0, 1].", Type: "gauge", Value: formatFloat(hitRate)},
		{Name: "mosaicd_cache_evictions_total", Help: "Failed/canceled jobs evicted so retries run fresh.", Type: "counter", Value: strconv.FormatUint(s.cacheEvictions.Load(), 10)},
		{Name: "mosaicd_cache_size", Help: "Jobs currently in the in-memory result cache.", Type: "gauge", Value: strconv.Itoa(cacheSize)},
		{Name: "mosaicd_cache_capacity", Help: "Bound on cached done results (0 = unbounded).", Type: "gauge", Value: strconv.Itoa(s.cacheCap)},
		{Name: "mosaicd_cache_lru_evictions_total", Help: "Done results evicted by the LRU bound (still served from the store).", Type: "counter", Value: strconv.FormatUint(s.cacheLRUEvictions.Load(), 10)},
		{Name: "mosaicd_store_serves_total", Help: "Submissions answered from the persistent store without simulating.", Type: "counter", Value: strconv.FormatUint(s.storeServes.Load(), 10)},
		{Name: "mosaicd_store_put_errors_total", Help: "Completed results that failed to persist to the store.", Type: "counter", Value: strconv.FormatUint(s.storePutErrors.Load(), 10)},
		{Name: "mosaicd_store_gets_total", Help: "Store lookups.", Type: "counter", Value: strconv.FormatUint(sc.Gets, 10)},
		{Name: "mosaicd_store_hits_total", Help: "Store lookups that returned a payload.", Type: "counter", Value: strconv.FormatUint(sc.Hits, 10)},
		{Name: "mosaicd_store_puts_total", Help: "Results persisted to the store.", Type: "counter", Value: strconv.FormatUint(sc.Puts, 10)},
		{Name: "mosaicd_store_dup_puts_total", Help: "Identical re-puts deduplicated by the store.", Type: "counter", Value: strconv.FormatUint(sc.DupPuts, 10)},
		{Name: "mosaicd_store_quarantined_total", Help: "Corrupt store entries quarantined instead of served.", Type: "counter", Value: strconv.FormatUint(sc.Quarantined, 10)},
		{Name: "mosaicd_store_quarantine_pruned_total", Help: "Quarantined files deleted by the per-shard retention bound.", Type: "counter", Value: strconv.FormatUint(sc.QuarantinePruned, 10)},
	}, s.campaigns.Metrics("mosaicd_", "mosaicd_campaign_")...))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
