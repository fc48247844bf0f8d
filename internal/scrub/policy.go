// Package scrub defines the scrub policies the study compares: what a
// patrol visit does to a line (how errors are checked, when the line is
// rewritten) and how the sweep interval adapts. A Policy is a value —
// detection mode, write threshold, wear-aware flag, adaptive controller,
// optional profiling schedule and label — and the reliability simulator
// (internal/engine), which owns state and physics, reads its write rule
// as data: it can tell from the fields alone that a clean line is never
// rewritten.
//
// The design space has three orthogonal axes, mirroring the paper:
//
//  1. Detection: full ECC decode on every visit (the DRAM way), or a
//     lightweight checksum probe that skips the expensive decode — and,
//     with it, the read of the ECC check bits — on the clean common case.
//  2. Write-back rule: always, on any error, or only at/above an error
//     threshold. Write-backs reset drift but burn endurance; the
//     threshold is the soft-vs-hard-error dial.
//  3. Interval control: fixed, or adapted sweep-by-sweep from observed
//     error pressure.
package scrub

import (
	"fmt"
	"math"
)

// Detection selects how a scrub visit checks a line for errors.
type Detection int

const (
	// FullDecode runs the ECC machinery on every visited line.
	FullDecode Detection = iota
	// LightDetect runs a cheap checksum compare first and decodes only
	// when the checksum fires.
	LightDetect
)

// String implements fmt.Stringer.
func (d Detection) String() string {
	switch d {
	case FullDecode:
		return "full-decode"
	case LightDetect:
		return "light-detect"
	default:
		return fmt.Sprintf("Detection(%d)", int(d))
	}
}

// VisitInfo is what a policy learns about a line during a scrub visit.
type VisitInfo struct {
	// ErrBits is the number of erroneous bits the check observed.
	ErrBits int
	// Capability is the ECC correction strength (bits per line).
	Capability int
	// DeadCells is the line's known stuck-cell count (hard errors).
	DeadCells int
}

// RoundStats summarises one complete sweep for interval adaptation.
type RoundStats struct {
	// Lines is the number of lines visited in the sweep.
	Lines int64
	// MaxErrBits is the worst per-line error count observed.
	MaxErrBits int
	// Capability is the ECC correction strength in force during the sweep
	// (0 when unknown).
	Capability int
	// LinesNearMargin counts lines whose errors reached Capability-1 or
	// worse — the lines one more drift crossing away from a UE.
	LinesNearMargin int64
	// WriteBacks and UEs are the sweep's action counts.
	WriteBacks int64
	UEs        int64
}

// AdaptiveConfig tunes sweep-interval feedback.
type AdaptiveConfig struct {
	// MinInterval and MaxInterval bound the interval in seconds.
	MinInterval, MaxInterval float64
	// Shrink (<1) is applied when error pressure is high; Grow (>1) when
	// low.
	Shrink, Grow float64
	// HighWater and LowWater are thresholds on the fraction of lines near
	// the ECC margin.
	HighWater, LowWater float64
}

// DefaultAdaptive returns the controller used by the combined mechanism:
// intervals between 4 minutes and 1 day, halving under pressure and
// growing 25 % when quiet.
func DefaultAdaptive() AdaptiveConfig {
	return AdaptiveConfig{
		MinInterval: 240,
		MaxInterval: 86400,
		Shrink:      0.5,
		Grow:        1.25,
		HighWater:   1e-3,
		LowWater:    1e-5,
	}
}

// Validate checks controller consistency.
func (a *AdaptiveConfig) Validate() error {
	if a.MinInterval <= 0 || a.MaxInterval < a.MinInterval {
		return fmt.Errorf("scrub: adaptive interval bounds invalid [%g, %g]", a.MinInterval, a.MaxInterval)
	}
	if a.Shrink <= 0 || a.Shrink >= 1 {
		return fmt.Errorf("scrub: Shrink must be in (0,1), got %g", a.Shrink)
	}
	if a.Grow <= 1 {
		return fmt.Errorf("scrub: Grow must be > 1, got %g", a.Grow)
	}
	if a.HighWater <= a.LowWater || a.LowWater < 0 {
		return fmt.Errorf("scrub: water marks invalid (%g, %g)", a.LowWater, a.HighWater)
	}
	return nil
}

// Config describes a policy point in the design space.
type Config struct {
	// Label names the policy in reports. New derives one from the other
	// fields when it is empty.
	Label string
	// Detect selects the visit check.
	Detect Detection
	// WriteThreshold is the minimum observed ErrBits that triggers a
	// write-back; 0 means "always write back every visited line" (the
	// naive patrol used for ablation), 1 means "write on any error" (the
	// DRAM baseline).
	WriteThreshold int
	// WearAware lowers the effective threshold by the line's dead-cell
	// count, spending writes where hard errors have eroded the margin.
	WearAware bool
	// Adaptive, when non-nil, enables sweep-interval feedback.
	Adaptive *AdaptiveConfig
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.WriteThreshold < 0 {
		return fmt.Errorf("scrub: WriteThreshold must be >= 0")
	}
	if c.Detect != FullDecode && c.Detect != LightDetect {
		return fmt.Errorf("scrub: unknown detection %d", int(c.Detect))
	}
	if c.Adaptive != nil {
		if err := c.Adaptive.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Policy is one scrub policy, a value: the simulator reads its fields at
// every visit and calls NextInterval after every sweep. Build it with New
// or a named constructor, which validate it and fill in its label.
type Policy struct {
	Config
	// Profile, when non-nil, arms HARP-style active profiling: the
	// engine runs profiling rounds on this schedule and re-aims a share
	// of patrol visits at the at-risk lines they find.
	Profile *ProfileConfig
}

// New builds a Policy from a Config.
func New(cfg Config) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return Policy{}, err
	}
	if cfg.Label == "" {
		cfg.Label = deriveName(cfg)
	}
	return Policy{Config: cfg}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) Policy {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func deriveName(cfg Config) string {
	name := fmt.Sprintf("thr%d", cfg.WriteThreshold)
	if cfg.WriteThreshold == 0 {
		name = "always"
	} else if cfg.WriteThreshold == 1 {
		name = "on-error"
	}
	if cfg.WearAware {
		name += "+wear"
	}
	if cfg.Detect == LightDetect {
		name += "+light"
	}
	if cfg.Adaptive != nil {
		name += "+adaptive"
	}
	return name
}

// Validate checks the policy: a label (New fills it in), its Config and
// its profiling schedule.
func (p Policy) Validate() error {
	if p.Label == "" {
		return fmt.Errorf("scrub: policy has no label; build it with scrub.New")
	}
	if err := p.Config.Validate(); err != nil {
		return err
	}
	if p.Profile != nil {
		return p.Profile.Validate()
	}
	return nil
}

// Name labels the policy in reports.
func (p Policy) Name() string { return p.Label }

// Detection returns the visit's error-check mechanism.
func (p Policy) Detection() Detection { return p.Detect }

// ShouldWriteBack decides whether a visit rewrites a correctable line. The
// engine asks it for every line the visit decoded (with a light probe,
// clean lines stop before this point); uncorrectable lines are always
// repaired. A WriteThreshold of at least 1 never rewrites a clean line.
func (p Policy) ShouldWriteBack(v VisitInfo) bool {
	thr := p.WriteThreshold
	if thr == 0 {
		return true
	}
	if p.WearAware {
		thr -= v.DeadCells
		if thr < 1 {
			thr = 1
		}
	}
	return v.ErrBits >= thr
}

// NextInterval returns the sweep interval to use after a sweep that ran
// at cur seconds and observed rs.
func (p Policy) NextInterval(cur float64, rs RoundStats) float64 {
	a := p.Adaptive
	if a == nil {
		return cur
	}
	next := cur
	if rs.Lines > 0 {
		risky := float64(rs.LinesNearMargin) / float64(rs.Lines)
		// A UE, a line that actually reached the ECC capacity (one more
		// crossing would have been a UE), or broad margin pressure all
		// force a shrink. Growth additionally requires the worst line to
		// sit comfortably inside the margin, so a quiet phase cannot
		// stretch the interval into overshoot territory.
		atCapacity := rs.Capability > 0 && rs.MaxErrBits >= rs.Capability
		deepMargin := rs.Capability == 0 || rs.MaxErrBits < rs.Capability-1
		switch {
		case rs.UEs > 0 || atCapacity || risky > a.HighWater:
			next = cur * a.Shrink
		case risky < a.LowWater && deepMargin:
			next = cur * a.Grow
		}
	}
	return math.Min(math.Max(next, a.MinInterval), a.MaxInterval)
}

// ByName builds a policy from a compact spec string, the vocabulary the
// CLIs and the scrubd job API share:
//
//	basic | always | light | threshold-<k> | combined-<k> | profiled | profiled-<k>
func ByName(spec string) (Policy, error) {
	switch spec {
	case "basic":
		return Basic(), nil
	case "always":
		return AlwaysWrite(), nil
	case "light":
		return LightBasic(), nil
	case "profiled":
		return ProfiledThreshold(1), nil
	}
	var k int
	if n, err := fmt.Sscanf(spec, "threshold-%d", &k); err == nil && n == 1 {
		return Threshold(k), nil
	}
	if n, err := fmt.Sscanf(spec, "combined-%d", &k); err == nil && n == 1 {
		return Combined(k), nil
	}
	if n, err := fmt.Sscanf(spec, "profiled-%d", &k); err == nil && n == 1 && k >= 1 {
		return ProfiledThreshold(k), nil
	}
	return Policy{}, fmt.Errorf("scrub: unknown policy %q", spec)
}

// Basic returns the DRAM-style baseline: full decode each visit, write
// back on any corrected error, fixed interval.
func Basic() Policy {
	return MustNew(Config{Label: "basic", Detect: FullDecode, WriteThreshold: 1})
}

// AlwaysWrite returns the naive patrol that rewrites every line it visits
// (ablation lower bound on write avoidance).
func AlwaysWrite() Policy {
	return MustNew(Config{Label: "always-write", Detect: FullDecode, WriteThreshold: 0})
}

// LightBasic is Basic with the lightweight detection probe.
func LightBasic() Policy {
	return MustNew(Config{Label: "basic+light", Detect: LightDetect, WriteThreshold: 1})
}

// Threshold returns a fixed-interval policy that writes back only at or
// above k observed error bits.
func Threshold(k int) Policy {
	return MustNew(Config{Label: fmt.Sprintf("threshold-%d", k), Detect: FullDecode, WriteThreshold: k})
}

// Combined returns the paper's full proposal: lightweight detection,
// wear-aware threshold write-back, adaptive interval.
func Combined(threshold int) Policy {
	a := DefaultAdaptive()
	return MustNew(Config{
		Label:          "combined",
		Detect:         LightDetect,
		WriteThreshold: threshold,
		WearAware:      true,
		Adaptive:       &a,
	})
}
