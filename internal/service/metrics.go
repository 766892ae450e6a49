package service

import (
	"fmt"
	"net/http"
	"strings"

	"cpsdyn/internal/core"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/switching"
)

// handleMetrics serves the /statsz counters in Prometheus text exposition
// format (version 0.0.4), hand-rolled so fleet dashboards can scrape
// cpsdynd without this module growing a client-library dependency. It is
// the Prometheus twin of handleStatsz; the metricsync analyzer and
// TestStatszMetricsParity both hold the two counter sets together.
//
//cpsdyn:metrics-source
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cache := core.DeriveCacheStats()
	memo := core.DeriveMemoStats()
	pool := mat.SharedPool.Stats()
	srv := s.Stats()
	var b strings.Builder
	metric := func(name, typ, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	// hist renders one latency histogram as the Prometheus triplet: cumulative
	// _bucket series (the snapshot's buckets are already cumulative and elide
	// empty trailing ones; the mandatory le="+Inf" bucket is the total count by
	// construction), then _sum and _count. Family names end in _seconds and
	// bounds are seconds, per the exposition conventions.
	hist := func(name, help string, snap obs.Snapshot) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, bk := range snap.Buckets {
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", name, bk.LE, bk.N)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
	}
	metric("cpsdynd_cache_hits_total", "counter",
		"Derivation-cache hits.", float64(cache.Hits))
	metric("cpsdynd_cache_misses_total", "counter",
		"Derivation-cache misses (computations started).", float64(cache.Misses))
	metric("cpsdynd_cache_disk_hits_total", "counter",
		"Derivation-cache memory misses answered by the persistent store instead of a computation.", float64(cache.DiskHits))
	metric("cpsdynd_cache_evictions_total", "counter",
		"Derivation-cache LRU evictions.", float64(cache.Evictions))
	metric("cpsdynd_cache_entries", "gauge",
		"Derivation-cache current entry count.", float64(cache.Entries))
	metric("cpsdynd_cache_bytes", "gauge",
		"Derivation-cache approximate retained bytes.", float64(cache.Bytes))
	metric("cpsdynd_derive_memo_hits_total", "counter",
		"Derivations served by the derive-by-key memo (controller design and model fits skipped).", float64(memo.Hits))
	metric("cpsdynd_derive_memo_misses_total", "counter",
		"Derivations that missed the derive-by-key memo and designed, fitted and keyed in full.", float64(memo.Misses))
	metric("cpsdynd_derive_memo_entries", "gauge",
		"Derive-by-key memo current entry count (bounded by the cache's entry capacity).", float64(memo.Entries))
	metric("cpsdynd_pool_hits_total", "counter",
		"Matrix-exponential workspace pool hits (reused workspaces).", float64(pool.Hits))
	metric("cpsdynd_pool_misses_total", "counter",
		"Matrix-exponential workspace pool misses (workspaces built).", float64(pool.Misses))
	metric("cpsdynd_pool_puts_total", "counter",
		"Matrix-exponential workspaces returned to the pool for reuse.", float64(pool.Puts))
	metric("cpsdynd_requests_total", "counter",
		"Compute requests completed (including failed and cancelled ones).", float64(srv.Requests))
	metric("cpsdynd_rejected_total", "counter",
		"Requests rejected after waiting out their budget for an in-flight slot.", float64(srv.Rejected))
	metric("cpsdynd_timed_out_total", "counter",
		"Requests whose compute budget expired.", float64(srv.TimedOut))
	metric("cpsdynd_cancelled_total", "counter",
		"Computations aborted by budget expiry or client disconnect.", float64(srv.Cancelled))
	metric("cpsdynd_in_flight", "gauge",
		"Requests currently computing.", float64(srv.InFlight))
	metric("cpsdynd_max_in_flight", "gauge",
		"The in-flight concurrency bound.", float64(srv.MaxInFlight))
	metric("cpsdynd_streams_total", "counter",
		"NDJSON streams completed across derive, allocate and calibrate (including cancelled ones).", float64(srv.Streams))
	metric("cpsdynd_stream_rows_in_total", "counter",
		"NDJSON request rows consumed across all streams.", float64(srv.RowsIn))
	metric("cpsdynd_stream_rows_out_total", "counter",
		"NDJSON result rows written across all streams.", float64(srv.RowsOut))
	metric("cpsdynd_stream_cancelled_total", "counter",
		"Streams cut short by budget expiry, disconnect or write failure.", float64(srv.StreamCancelled))
	metric("cpsdynd_sim_steps_total", "counter",
		"Cumulative closed-loop simulation steps across all derivations.", float64(switching.SimSteps()))
	metric("cpsdynd_workers", "gauge",
		"Per-request worker ceiling (defaults resolved).", float64(srv.Workers))
	metric("cpsdynd_stream_window", "gauge",
		"Per-stream NDJSON reorder window (defaults resolved).", float64(srv.StreamWindow))
	lat := s.latencyStats()
	hist("cpsdynd_latency_derive_seconds",
		"Buffered /v1/derive request latency.", lat.Derive)
	hist("cpsdynd_latency_derive_stream_seconds",
		"/v1/derive/stream request latency (whole stream).", lat.DeriveStream)
	hist("cpsdynd_latency_allocate_seconds",
		"Buffered /v1/allocate request latency.", lat.Allocate)
	hist("cpsdynd_latency_allocate_stream_seconds",
		"/v1/allocate/stream request latency (whole stream).", lat.AllocateStream)
	hist("cpsdynd_latency_calibrate_seconds",
		"Buffered /v1/calibrate request latency.", lat.Calibrate)
	hist("cpsdynd_latency_calibrate_stream_seconds",
		"/v1/calibrate/stream request latency (whole stream).", lat.CalibrateStream)
	hist("cpsdynd_latency_derive_row_seconds",
		"Per-row derivation latency on the memo-cache slow path.", lat.DeriveRow)
	if s.gw != nil {
		gst := s.gw.Stats()
		down := 0
		var failures uint64
		for _, p := range gst.Peers {
			if p.Down {
				down++
			}
			failures += p.Failures
		}
		metric("cpsdynd_peers", "gauge",
			"Replica peers configured in sharding-gateway mode.", float64(len(gst.Peers)))
		metric("cpsdynd_peers_down", "gauge",
			"Peers whose circuit breaker is currently open.", float64(down))
		metric("cpsdynd_peer_rows_total", "counter",
			"Derive rows answered by replica peers.", float64(gst.PeerRows))
		metric("cpsdynd_peer_fallbacks_total", "counter",
			"Derive rows computed locally because a peer was down or slow.", float64(gst.PeerFallbacks))
		metric("cpsdynd_peer_failures_total", "counter",
			"Failed peer calls summed over all peers (each failure trips the breaker closer to open).", float64(failures))
		hist("cpsdynd_latency_peer_round_trip_seconds",
			"Settled peer exchange round-trip latency in sharding-gateway mode.", *lat.PeerRoundTrip)
	}
	if s.cfg.Store != nil {
		sst := s.cfg.Store.Stats()
		metric("cpsdynd_store_loads_total", "counter",
			"Records loaded from the persistent derivation store.", float64(sst.Loads))
		metric("cpsdynd_store_stores_total", "counter",
			"Records written to the persistent derivation store.", float64(sst.Stores))
		metric("cpsdynd_store_load_errors_total", "counter",
			"Corrupt or torn records rejected (and deleted) on load.", float64(sst.LoadErrors))
		metric("cpsdynd_store_records", "gauge",
			"Records currently indexed in the persistent derivation store.", float64(sst.Records))
		metric("cpsdynd_store_bytes", "gauge",
			"On-disk bytes retained by the persistent derivation store.", float64(sst.Bytes))
		hist("cpsdynd_latency_store_load_seconds",
			"Persistent-store load latency (disk-touching attempts, hit or corrupt).", *lat.StoreLoad)
		hist("cpsdynd_latency_store_store_seconds",
			"Persistent-store write latency.", *lat.StoreStore)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
