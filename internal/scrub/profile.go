package scrub

import "fmt"

// ProfileConfig tunes HARP-style active error profiling. Profiling is a
// scheduling overlay, not a detection mechanism: the engine runs
// periodic read-only profiling rounds to build a per-device at-risk
// line set, then redirects a fraction of ordinary patrol visits toward
// those lines — spending the same scrub bandwidth where the margin is
// thinnest instead of uniformly.
//
// The hidden-error regime motivates the split between direct and
// indirect discovery (HARP, Patel et al. 2021): when a line's raw error
// count exceeds its on-die ECC strength, the on-die decoder fails and
// every erroneous position is immediately visible (direct). While the
// on-die code still corrects, errors are invisible from outside; each
// additional profiling pass can expose at most one more hidden position
// (indirect), so coverage grows with Passes.
type ProfileConfig struct {
	// Every is the profiling cadence in sweeps (or patrol wraps on a
	// fleet device): a profiling round runs after every Every-th sweep.
	Every int
	// Passes is the number of profiling reads per line and round. Pass 1
	// catches direct errors; each further pass exposes at most one
	// on-die-hidden position per line.
	Passes int
	// RiskThreshold is the minimum number of known error positions that
	// puts a line in the at-risk set.
	RiskThreshold int
	// BiasFraction is the fraction of patrol visits redirected to
	// at-risk lines (0,1]. Total visits per sweep are unchanged — biased
	// visits replace uniform ones, keeping scrub bandwidth equal.
	BiasFraction float64
	// MaxAtRiskFraction caps the at-risk set as a fraction of all lines;
	// the worst lines (most known error positions) are kept.
	MaxAtRiskFraction float64
}

// DefaultProfile is the profiling setup the profiled policies use:
// profile every 4 sweeps with 3 passes, track lines with any known
// error position (up to a quarter of the device), and redirect a
// quarter of patrol visits toward them.
func DefaultProfile() ProfileConfig {
	return ProfileConfig{
		Every:             4,
		Passes:            3,
		RiskThreshold:     1,
		BiasFraction:      0.25,
		MaxAtRiskFraction: 0.25,
	}
}

// Validate checks the profiling configuration.
func (p *ProfileConfig) Validate() error {
	if p.Every < 1 {
		return fmt.Errorf("scrub: profile Every must be >= 1, got %d", p.Every)
	}
	if p.Passes < 1 {
		return fmt.Errorf("scrub: profile Passes must be >= 1, got %d", p.Passes)
	}
	if p.RiskThreshold < 1 {
		return fmt.Errorf("scrub: profile RiskThreshold must be >= 1, got %d", p.RiskThreshold)
	}
	if p.BiasFraction <= 0 || p.BiasFraction > 1 {
		return fmt.Errorf("scrub: profile BiasFraction must be in (0,1], got %g", p.BiasFraction)
	}
	if p.MaxAtRiskFraction <= 0 || p.MaxAtRiskFraction > 1 {
		return fmt.Errorf("scrub: profile MaxAtRiskFraction must be in (0,1], got %g", p.MaxAtRiskFraction)
	}
	return nil
}

// Profiled returns base with HARP-style active profiling under cfg. The
// policy keeps base's visit behaviour; the engine adds the profiling
// rounds and visit redirection.
func Profiled(base Policy, cfg ProfileConfig) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return Policy{}, err
	}
	base.Profile = &cfg
	return base, nil
}

// ProfiledThreshold is the standard profiled policy: full decode, write
// back at or above k visible error bits, fixed interval, default
// profiling schedule. Under on-die ECC the k=1 variant is the natural
// choice: visible error counts jump from zero straight past the on-die
// strength, so any visible error is already an emergency.
func ProfiledThreshold(k int) Policy {
	base := MustNew(Config{
		Label:          fmt.Sprintf("profiled-%d", k),
		Detect:         FullDecode,
		WriteThreshold: k,
	})
	p, err := Profiled(base, DefaultProfile())
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the policy spec vocabulary ByName accepts, for
// validation error messages and help text.
func Names() []string {
	return []string{
		"basic", "always", "light",
		"threshold-<k>", "combined-<k>",
		"profiled", "profiled-<k>",
	}
}
