package fleet

import (
	"io"

	"repro/internal/httpx"
)

// WritePrometheus renders the fleet's aggregate counters in the
// Prometheus text exposition format; scrubd chains it onto /metrics when
// the fleet is enabled.
func (m *Manager) WritePrometheus(out io.Writer) error {
	t := m.Snapshot()
	return httpx.WriteMetrics(out,
		httpx.Gauge("scrubd_fleet_devices", "Devices currently registered with the fleet control plane.", float64(t.Devices)),
		httpx.Counter("scrubd_fleet_devices_registered_total", "Devices registered over the process lifetime (including recovered).", float64(t.Registered)),
		httpx.Counter("scrubd_fleet_devices_removed_total", "Devices removed over the process lifetime.", float64(t.Removed)),
		httpx.Counter("scrubd_fleet_patrol_rounds_total", "Completed background patrol passes across live devices.", float64(t.PatrolRounds)),
		httpx.Counter("scrubd_fleet_chunks_total", "Scrub increments executed across live devices.", float64(t.Chunks)),
		httpx.Counter("scrubd_fleet_patrol_chunks_total", "Background patrol increments across live devices.", float64(t.PatrolChunks)),
		httpx.Counter("scrubd_fleet_scrub_chunks_total", "On-demand region-scrub increments across live devices.", float64(t.ScrubChunks)),
		httpx.Counter("scrubd_fleet_preemptions_total", "Patrol chunks preempted by on-demand scrub work.", float64(t.Preemptions)),
		httpx.Counter("scrubd_fleet_scrub_jobs_total", "On-demand region scrubs accepted.", float64(t.ScrubJobs)),
		httpx.Gauge("scrubd_fleet_pending_scrubs", "On-demand scrubs queued or running across live devices.", float64(t.PendingScrubs)),
		httpx.Counter("scrubd_fleet_ce_observed_total", "Correctable-error observations folded into fleet telemetry.", float64(t.CEObserved)),
		httpx.Counter("scrubd_fleet_ue_observed_total", "Uncorrectable-error observations folded into fleet telemetry.", float64(t.UEObserved)),
		httpx.Counter("scrubd_fleet_corrected_bits_total", "Error bits scrubbed away across live devices.", float64(t.CorrectedBits)),
		httpx.Counter("scrubd_fleet_repairs_total", "Post-Package-Repair events fired by the telemetry threshold.", float64(t.Repairs)),
		httpx.Gauge("scrubd_fleet_device_seconds", "Summed simulated device time across live devices.", t.DeviceSeconds),
	)
}
