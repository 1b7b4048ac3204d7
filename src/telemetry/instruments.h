// The process-wide instrument set: one accessor per built-in metric,
// resolving lazily into MetricsRegistry::Global(). Each accessor is a
// function-local static reference, so an instrumented site pays the
// registry mutex once per process and a plain pointer read after that.
//
// Naming follows Prometheus conventions: `capp_` prefix, `_total` on
// counters, `_seconds`/`_bytes` unit suffix on histograms. Keep names in
// sync with the table in src/engine/README.md ("Telemetry") and the
// expectations in tools/scrape_metrics.py / CI.
#ifndef CAPP_TELEMETRY_INSTRUMENTS_H_
#define CAPP_TELEMETRY_INSTRUMENTS_H_

#include "telemetry/metrics.h"

namespace capp::telemetry::metrics {

// --- fleet (producer side) -------------------------------------------------
// Wall time to perturb + publish one fleet chunk (a few thousand users).
Histogram& FleetChunkSeconds();

// --- transport queue -------------------------------------------------------
Counter& TransportPushStallsTotal();
Counter& TransportPopWaitsTotal();
Histogram& TransportPushStallSeconds();  // time blocked in a full-queue wait
Histogram& TransportPopWaitSeconds();    // time blocked in an empty-queue wait
Gauge& TransportQueueDepth();            // frames currently queued, all queues
Histogram& TransportEncodeSeconds();     // wire-format encode of one run

// --- socket ----------------------------------------------------------------
Counter& SocketWriteChunksTotal();
Counter& SocketWriteBytesTotal();
Histogram& SocketWriteChunkBytes();
Counter& SocketReadChunksTotal();
Counter& SocketReadBytesTotal();
Histogram& SocketReadChunkBytes();
Gauge& SocketOpenConnections();

// --- collector -------------------------------------------------------------
Counter& IngestRunsTotal();
Counter& IngestReportsTotal();
Histogram& IngestBatchSeconds();   // one IngestUserRuns batch
Counter& SeqlockReadRetriesTotal();
Gauge& CollectorDims();            // attributes per report (last collector)
Counter& IngestDimRowsTotal();     // per-attribute rows via the d-dim path

// --- WAL -------------------------------------------------------------------
Counter& WalAppendsTotal();
Counter& WalAppendedBytesTotal();
Counter& WalFsyncsTotal();
Counter& WalRotationsTotal();
Counter& WalCheckpointsTotal();
Counter& WalAppendStallsTotal();
Counter& WalRecoverySegmentsTotal();        // segments replayed at Create
Counter& WalRecoveryFramesTotal();          // frames re-ingested at Create
Counter& WalRecoveryBytesDiscardedTotal();  // torn-tail bytes truncated
Counter& WalRunsDedupedTotal();  // resent runs skipped (recovery and live)
Histogram& WalAppendSeconds();
Histogram& WalFsyncSeconds();
Histogram& WalRotateSeconds();
Histogram& WalCheckpointSeconds();

// --- analytics -------------------------------------------------------------
Counter& AnalyticsWindowsTotal();
Histogram& AnalyticsWindowSeconds();

}  // namespace capp::telemetry::metrics

#endif  // CAPP_TELEMETRY_INSTRUMENTS_H_
