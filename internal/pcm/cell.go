package pcm

import (
	"math"

	"repro/internal/stats"
)

// Cell is the brute-force reference representation of one programmed MLC
// cell: the frozen programming noise and drift exponent drawn at write
// time. It exists to validate the fast crossing-time machinery and for
// small-scale explorations; the simulator proper never materialises cells.
type Cell struct {
	Level   int     // programmed level, 0..3
	EpsProg float64 // programming noise in log10 decades
	Nu      float64 // drift exponent
}

// WriteCell programs a cell to level, sampling its noise and exponent.
func (m *Model) WriteCell(r *stats.RNG, level int) Cell {
	if level < 0 || level >= Levels {
		panic("pcm: level out of range")
	}
	return Cell{
		Level:   level,
		EpsProg: r.Normal(0, m.p.SigmaProg),
		Nu:      r.Normal(m.p.NuMean[level], m.p.NuSigma[level]),
	}
}

// Resistance returns the cell's log10 resistance t seconds after the write.
func (m *Model) Resistance(c Cell, t float64) float64 {
	return m.p.LevelMeans[c.Level] + c.EpsProg + c.Nu*m.X(t)
}

// ReadLevel returns the level the sense circuit reports t seconds after
// the write, by comparing the drifted resistance against the thresholds.
func (m *Model) ReadLevel(c Cell, t float64) int {
	res := m.Resistance(c, t)
	for level := 0; level < Levels-1; level++ {
		if res < m.p.Thresholds[level] {
			return level
		}
	}
	return Levels - 1
}

// CrossingTime returns the time (seconds since write) at which the cell's
// resistance crosses the threshold directly above its level, or +Inf if it
// never does (within the modelled horizon). A cell already above its
// threshold at programming time returns 0.
//
// Note this tracks only upward crossings of the adjacent threshold — the
// drift mechanism. Downward programming errors (ε below the lower
// threshold) are possible but are second-order for drift-dominated soft
// errors; ReadLevel captures them in the reference model.
func (m *Model) CrossingTime(c Cell) float64 {
	if c.Level == Levels-1 {
		return math.Inf(1)
	}
	margin := m.p.Thresholds[c.Level] - m.p.LevelMeans[c.Level] - c.EpsProg
	if margin <= 0 {
		return 0
	}
	if c.Nu <= 0 {
		return math.Inf(1)
	}
	x := margin / c.Nu
	if x > m.p.MaxLog10Time {
		return math.Inf(1)
	}
	return m.TimeOf(x)
}
