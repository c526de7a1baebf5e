package serve

import (
	"dsarp/internal/exp"
	"dsarp/internal/telemetry"
)

// serverMetrics holds the counters the serving path updates directly.
// Everything else on /metrics is a scrape-time callback over counters
// that already exist (runner, store, peer tier, chaos middleware), so
// exposition never double-books state and nothing is added to the
// simulation hot path.
type serverMetrics struct {
	refused    *telemetry.CounterVec   // reason: queue_full | draining
	simSeconds *telemetry.HistogramVec // source: computed | store | memory | peer
	// resumeCycle records the checkpoint cycle each resumed computation
	// restarted from (cold runs are not observed).
	resumeCycle *telemetry.Histogram
}

// resumeCycleBuckets span the checkpoint-cycle scale: the smoke-test
// warmups (tens of thousands of DRAM cycles) up through paper-scale
// windows (200k warmup + 2M measure).
var resumeCycleBuckets = []float64{
	1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7,
}

// registerMetrics wires the server's observable state into reg and
// returns the handles for the directly-updated series. Called once from
// New; reg is also what GET /metrics renders.
func (s *Server) registerMetrics(reg *telemetry.Registry, chaos *Chaos) *serverMetrics {
	m := &serverMetrics{
		refused: reg.CounterVec("dsarp_refused_total",
			"Submissions refused at admission, by reason.", "reason"),
		simSeconds: reg.HistogramVec("dsarp_sim_seconds",
			"Per-simulation wall time by result source.",
			telemetry.SimSecondsBuckets, "source"),
		resumeCycle: reg.Histogram("dsarp_resume_cycle",
			"Checkpoint cycle resumed computations restored from.",
			resumeCycleBuckets),
	}
	// Pre-create the label combinations so every scrape exposes the full
	// catalog at zero, not just the series that happened to fire.
	m.refused.With("queue_full")
	m.refused.With("draining")
	for _, src := range []exp.RunSource{exp.SourceComputed, exp.SourceStore, exp.SourceMemory, exp.SourcePeer} {
		m.simSeconds.With(src.String())
	}

	reg.GaugeFunc("dsarp_queue_free", "Remaining queue+run slots.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.free)
	})
	reg.GaugeFunc("dsarp_queue_capacity", "Total queue+run slots.", func() float64 {
		return float64(s.maxQueue)
	})
	reg.GaugeFunc("dsarp_draining", "1 while the server refuses new work to drain.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return b2f(s.draining)
	})
	reg.GaugeFunc("dsarp_degraded", "1 while the store or job journal has lost durable writes.", func() float64 {
		deg, _ := s.degradedState()
		return b2f(deg)
	})
	reg.GaugeFunc("dsarp_retry_after_seconds",
		"Current Retry-After estimate a refused client would receive.", func() float64 {
			return float64(s.retryAfterSecs())
		})
	reg.GaugeFunc("dsarp_sse_subscribers", "Open job event streams.", func() float64 {
		return float64(s.sseSubs.Load())
	})
	jobs := reg.GaugeVec("dsarp_jobs", "Retained jobs by state.", "state")
	jobs.Func(func() float64 { running, _ := s.jobs.stateCounts(); return float64(running) }, "running")
	jobs.Func(func() float64 { _, done := s.jobs.stateCounts(); return float64(done) }, "done")

	reg.CounterFunc("dsarp_sims_computed_total",
		"Simulations actually executed (not served from any cache).", func() float64 {
			return float64(s.runner.SimsRun())
		})
	reg.CounterFunc("dsarp_store_hits_total",
		"Runs satisfied by the local result store.", func() float64 {
			return float64(s.runner.StoreHits())
		})
	reg.CounterFunc("dsarp_store_errs_total",
		"Store read/write errors observed by the runner.", func() float64 {
			return float64(s.runner.StoreErrs())
		})
	reg.CounterFunc("dsarp_checkpoints_written_total",
		"Simulation snapshots persisted to the store.", func() float64 {
			return float64(s.runner.CheckpointsWritten())
		})
	reg.CounterFunc("dsarp_checkpoint_written_bytes_total",
		"Snapshot bytes persisted to the store.", func() float64 {
			return float64(s.runner.CheckpointBytesWritten())
		})
	reg.CounterFunc("dsarp_checkpoints_restored_total",
		"Simulations resumed from a stored snapshot.", func() float64 {
			return float64(s.runner.CheckpointsRestored())
		})
	reg.CounterFunc("dsarp_checkpoint_restored_bytes_total",
		"Snapshot bytes restored into resumed simulations.", func() float64 {
			return float64(s.runner.CheckpointBytesRestored())
		})
	reg.CounterFunc("dsarp_checkpoints_rejected_total",
		"Stored snapshots found unusable; each fell back to a shallower entry point.", func() float64 {
			return float64(s.runner.CheckpointsRejected())
		})

	if st := s.runner.Options().Store; st != nil {
		reg.GaugeFunc("dsarp_store_entries", "Entries held by the local store (all kinds).", func() float64 {
			return float64(st.Stats().Entries)
		})
		reg.GaugeFunc("dsarp_store_bytes", "Bytes held by the local store (all kinds).", func() float64 {
			return float64(st.Stats().Bytes)
		})
		kindEntries := reg.GaugeVec("dsarp_store_kind_entries",
			"Entries held by the local store, by namespace kind.", "kind")
		kindEntries.Func(func() float64 { return float64(st.Stats().ResultEntries) }, "result")
		kindEntries.Func(func() float64 { return float64(st.Stats().SnapshotEntries) }, "snapshot")
		kindBytes := reg.GaugeVec("dsarp_store_kind_bytes",
			"Bytes held by the local store, by namespace kind.", "kind")
		kindBytes.Func(func() float64 { return float64(st.Stats().ResultBytes) }, "result")
		kindBytes.Func(func() float64 { return float64(st.Stats().SnapshotBytes) }, "snapshot")
		reg.CounterFunc("dsarp_store_evicted_total", "Entries removed by the byte cap.", func() float64 {
			return float64(st.Stats().Evicted)
		})
		reg.CounterFunc("dsarp_store_corrupt_total",
			"Entries healed (deleted) because verification failed.", func() float64 {
				return float64(st.Stats().Corrupt)
			})
		reg.CounterFunc("dsarp_store_expired_total",
			"Old-generation entries swept at open.", func() float64 {
				return float64(st.Stats().Expired)
			})
		reg.GaugeFunc("dsarp_store_degraded", "1 while the store is read-only after a write failure.", func() float64 {
			deg, _ := st.Degraded()
			return b2f(deg)
		})
	}

	if p := s.peer; p != nil {
		reg.CounterFunc("dsarp_peer_fetch_hits_total",
			"Hedged peer fetches that produced a verified payload.", func() float64 {
				return float64(p.fetchHits.Load())
			})
		reg.CounterFunc("dsarp_peer_fetch_misses_total",
			"Hedged peer fetches that fell through to simulation.", func() float64 {
				return float64(p.fetchMisses.Load())
			})
		reg.CounterFunc("dsarp_peer_push_ok_total",
			"Replica payloads delivered to an owner.", func() float64 {
				return float64(p.pushOK.Load())
			})
		reg.CounterFunc("dsarp_peer_push_fails_total",
			"Replica deliveries abandoned after all attempts.", func() float64 {
				return float64(p.pushFails.Load())
			})
		reg.CounterFunc("dsarp_peer_corrupt_rejected_total",
			"Peer payloads refused because hash or decode failed.", func() float64 {
				return float64(p.corrupt.Load())
			})
		reg.GaugeFunc("dsarp_peer_members", "Ring member count.", func() float64 {
			return float64(p.ring.Len())
		})
		reg.GaugeFunc("dsarp_peer_replicas", "Replication factor R.", func() float64 {
			return float64(p.replicas)
		})
	}

	if chaos != nil {
		faults := reg.CounterVec("dsarp_chaos_faults_total",
			"Injected faults by kind (chaos middleware).", "kind")
		faults.Func(func() float64 { return float64(chaos.fails.Load()) }, "fail")
		faults.Func(func() float64 { return float64(chaos.drops.Load()) }, "drop")
		faults.Func(func() float64 { return float64(chaos.stalls.Load()) }, "stall")
		faults.Func(func() float64 { return float64(chaos.kills.Load()) }, "kill")
		faults.Func(func() float64 { return float64(chaos.diskFails.Load()) }, "diskfail")
	}

	schema := reg.GaugeVec("dsarp_schema_info",
		"Always 1; the schema label pins the store generation.", "schema")
	schema.Func(func() float64 { return 1 }, exp.SchemaVersion)
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
