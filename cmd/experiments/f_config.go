package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/pcm"
)

func init() {
	register(experiment{
		ID:    "T1",
		Title: "System configuration",
		Run:   runT1,
	})
}

func runT1(env *environment) ([]core.Table, error) {
	sys := env.sys
	cfg := core.Table{Title: "Simulated system", Header: []string{"parameter", "value"}}
	g := sys.Geometry
	cfg.AddRow("region", fmt.Sprintf("%d lines x %d B (%d KiB data)",
		g.TotalLines(), g.LineBytes, g.TotalBytes()/1024))
	cfg.AddRow("organisation", fmt.Sprintf("%d ch x %d rank x %d bank x %d row x %d lines",
		g.Channels, g.RanksPerChan, g.BanksPerRank, g.RowsPerBank, g.LinesPerRow))
	cfg.AddRow("cell", fmt.Sprintf("2-bit MLC, %d cells/line, Gray-coded", pcm.CellsPerLine))
	cfg.AddRow("level means (log10 ohm)", fmt.Sprintf("%.1f / %.1f / %.1f / %.1f",
		sys.PCM.LevelMeans[0], sys.PCM.LevelMeans[1], sys.PCM.LevelMeans[2], sys.PCM.LevelMeans[3]))
	cfg.AddRow("programming sigma", fmt.Sprintf("%.3f decades", sys.PCM.SigmaProg))
	cfg.AddRow("drift exponents (mean)", fmt.Sprintf("%.3f / %.3f / %.3f / %.3f",
		sys.PCM.NuMean[0], sys.PCM.NuMean[1], sys.PCM.NuMean[2], sys.PCM.NuMean[3]))
	cfg.AddRow("drift exponent spread", fmt.Sprintf("%.0f%% of mean", 100*sys.PCM.NuSigma[2]/sys.PCM.NuMean[2]))
	cfg.AddRow("endurance", fmt.Sprintf("10^%.1f writes median, %.2f decades sigma",
		sys.Wear.MeanLog10Writes, sys.Wear.SigmaLog10))
	cfg.AddRow("read / write energy", fmt.Sprintf("%.1f / %.1f pJ per bit",
		sys.Energy.ArrayReadPJPerBit, sys.Energy.ArrayWritePJPerBit))
	timing := memctrl.DefaultParams()
	cfg.AddRow("read / write latency", fmt.Sprintf("%.0f ns / %.0f ns",
		timing.ReadLatencyNs, timing.WriteLatencyNs))
	cfg.AddRow("horizon", core.FmtSeconds(sys.Horizon))
	cfg.AddRow("risk target", fmt.Sprintf("%g per line-sweep", sys.RiskTarget))

	mechs, err := core.Suite(sys)
	if err != nil {
		return nil, err
	}
	ladder := core.Table{Title: "Mechanism ladder", Header: []string{"mechanism", "ECC", "check", "write-back rule", "interval"}}
	for _, m := range mechs {
		ladder.AddRow(m.Name, m.Scheme.Name(), m.Policy.Detection().String(),
			m.Policy.Name(), core.FmtSeconds(m.Interval))
	}
	return []core.Table{cfg, ladder}, nil
}
