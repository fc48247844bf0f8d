// Package trace generates the synthetic memory-access workloads that drive
// the scrub simulator. What matters to scrub behaviour is captured here:
// how often lines are rewritten (a write resets a line's drift clock), how
// concentrated the writes are (hot lines never drift; cold lines drift for
// the whole experiment), and how much read traffic competes with scrub for
// bandwidth. Intensities are calibrated to the write-rate ranges published
// for SPEC/NPB-class workloads on PCM main-memory studies.
package trace

import (
	"fmt"
	"slices"

	"repro/internal/stats"
)

// Phase scales a workload's intensity for a stretch of time, letting
// experiments model program phase changes (e.g. init → compute → output).
type Phase struct {
	// DurationSec is how long the phase lasts.
	DurationSec float64
	// WriteMult and ReadMult scale the base rates during the phase.
	WriteMult float64
	ReadMult  float64
}

// Workload describes one synthetic application mix.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// WritesPerLinePerSec is the average demand-write rate per *footprint*
	// line. A write rewrites the line and resets its drift clock.
	WritesPerLinePerSec float64
	// ReadsPerLinePerSec is the average demand-read rate per footprint line.
	ReadsPerLinePerSec float64
	// FootprintFrac is the fraction of memory the workload touches.
	FootprintFrac float64
	// ZipfSkew concentrates accesses on hot lines (0 = uniform).
	ZipfSkew float64
	// Phases optionally modulate intensity over time; the sequence repeats.
	// Empty means constant intensity.
	Phases []Phase
}

// Validate checks the workload description.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("trace: workload needs a name")
	}
	if w.WritesPerLinePerSec < 0 || w.ReadsPerLinePerSec < 0 {
		return fmt.Errorf("trace: %s: rates must be non-negative", w.Name)
	}
	if w.FootprintFrac <= 0 || w.FootprintFrac > 1 {
		return fmt.Errorf("trace: %s: footprint fraction must be in (0,1]", w.Name)
	}
	if w.ZipfSkew < 0 {
		return fmt.Errorf("trace: %s: Zipf skew must be non-negative", w.Name)
	}
	for i, ph := range w.Phases {
		if ph.DurationSec <= 0 {
			return fmt.Errorf("trace: %s: phase %d duration must be positive", w.Name, i)
		}
		if ph.WriteMult < 0 || ph.ReadMult < 0 {
			return fmt.Errorf("trace: %s: phase %d multipliers must be non-negative", w.Name, i)
		}
	}
	return nil
}

// Generator produces the per-epoch event stream for one workload over a
// memory region. Not safe for concurrent use.
type Generator struct {
	w          Workload
	phases     []Phase // w.Phases, copied so the generator owns it
	totalLines int
	footprint  int
	perm       []int32 // footprint rank -> line index
	zipf       stats.Zipf
	cycleLen   float64 // total duration of the phase sequence
}

// NewGenerator builds a generator over totalLines lines, using r to lay
// out the footprint (hot-line placement is part of the experiment seed).
func NewGenerator(w Workload, totalLines int, r *stats.RNG) (*Generator, error) {
	g := new(Generator)
	if err := g.Reset(w, totalLines, r); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset rebuilds g in place, exactly as NewGenerator would build it,
// reusing its permutation and Zipf table where they have the capacity.
func (g *Generator) Reset(w Workload, totalLines int, r *stats.RNG) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if totalLines < 1 {
		return fmt.Errorf("trace: totalLines must be >= 1")
	}
	footprint := int(w.FootprintFrac * float64(totalLines))
	if footprint < 1 {
		footprint = 1
	}
	g.phases = append(g.phases[:0], w.Phases...)
	g.w = w
	g.w.Phases = g.phases
	g.totalLines = totalLines
	g.footprint = footprint
	g.zipf.Reset(footprint, w.ZipfSkew)
	// Scatter the footprint across physical lines: hot Zipf ranks land on
	// arbitrary rows/banks, as virtual-to-physical mapping would do.
	g.perm = slices.Grow(g.perm[:0], totalLines)[:totalLines]
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	r.Shuffle(totalLines, func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	g.perm = g.perm[:footprint]
	g.cycleLen = 0
	for _, ph := range w.Phases {
		g.cycleLen += ph.DurationSec
	}
	return nil
}

// Workload returns the generator's workload description.
func (g *Generator) Workload() Workload { return g.w }

// FootprintLines returns the number of distinct lines the workload touches.
func (g *Generator) FootprintLines() int { return g.footprint }

// multipliers returns the active phase multipliers at absolute time t.
func (g *Generator) multipliers(t float64) (wm, rm float64) {
	if len(g.w.Phases) == 0 {
		return 1, 1
	}
	pos := t
	if g.cycleLen > 0 {
		for pos >= g.cycleLen {
			pos -= g.cycleLen
		}
	}
	for _, ph := range g.w.Phases {
		if pos < ph.DurationSec {
			return ph.WriteMult, ph.ReadMult
		}
		pos -= ph.DurationSec
	}
	last := g.w.Phases[len(g.w.Phases)-1]
	return last.WriteMult, last.ReadMult
}

// WriteRateAt returns the region-wide demand-write rate (lines/sec) at
// absolute time t.
func (g *Generator) WriteRateAt(t float64) float64 {
	wm, _ := g.multipliers(t)
	return g.w.WritesPerLinePerSec * float64(g.footprint) * wm
}

// ReadRateAt returns the region-wide demand-read rate (lines/sec) at
// absolute time t.
func (g *Generator) ReadRateAt(t float64) float64 {
	_, rm := g.multipliers(t)
	return g.w.ReadsPerLinePerSec * float64(g.footprint) * rm
}

// WritesInEpoch samples the demand writes in [t, t+dt): a Poisson event
// count with Zipf-selected targets. The returned slice (reused from buf if
// it has capacity) holds line indices, possibly with repeats — repeated
// writes to a hot line within an epoch are real and each resets drift.
func (g *Generator) WritesInEpoch(r *stats.RNG, t, dt float64, buf []int) []int {
	return g.sampleEvents(r, g.WriteRateAt(t)*dt, buf)
}

// ReadsInEpoch samples the demand reads in [t, t+dt).
func (g *Generator) ReadsInEpoch(r *stats.RNG, t, dt float64, buf []int) []int {
	return g.sampleEvents(r, g.ReadRateAt(t)*dt, buf)
}

func (g *Generator) sampleEvents(r *stats.RNG, mean float64, buf []int) []int {
	buf = buf[:0]
	if mean <= 0 {
		return buf
	}
	n := r.Poisson(mean)
	for i := int64(0); i < n; i++ {
		rank := g.zipf.Sample(r)
		buf = append(buf, int(g.perm[rank]))
	}
	return buf
}
