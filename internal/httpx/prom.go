package httpx

import (
	"fmt"
	"io"
)

// Metric is one unlabelled sample in the Prometheus text exposition
// format. Build it with Counter or Gauge.
type Metric struct {
	name, help, typ string
	value           float64
}

// Counter is a monotonically increasing sample.
func Counter(name, help string, value float64) Metric {
	return Metric{name, help, "counter", value}
}

// Gauge is a sample that can go up and down.
func Gauge(name, help string, value float64) Metric {
	return Metric{name, help, "gauge", value}
}

// WriteMetrics renders each metric as its # HELP and # TYPE lines
// followed by its sample, in order.
func WriteMetrics(w io.Writer, metrics ...Metric) error {
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
			m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}
