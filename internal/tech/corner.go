package tech

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Corner is a named PVT (process/voltage/temperature) operating point
// expressed as uniform derating factors over the typical process: every
// channel resistance scales by RScale and every capacitance by CScale.
// First-order RC delays are bilinear in R and C, so a corner's delay is
// exactly the typical delay times RScale·CScale — which is what lets a
// corner read the typical model's arcs at that scale (delay.Model.At)
// instead of re-running path enumeration, or holding arcs of its own,
// per corner.
type Corner struct {
	// Name identifies the corner in reports, flags, and metric labels.
	Name string
	// RScale multiplies every effective channel resistance (REnh, RPass,
	// RDep). >1 models a slow process or hot silicon.
	RScale float64
	// CScale multiplies every capacitance (gate, diffusion, extracted
	// wire). >1 models worst-case extraction.
	CScale float64
}

// DelayScale is the factor a first-order RC delay scales by at this
// corner: RScale × CScale.
func (c Corner) DelayScale() float64 { return c.RScale * c.CScale }

// IsTypical reports whether the corner is an identity scaling of the
// typical process — analyses at such a corner are byte-identical to the
// base analysis and can share its result outright.
func (c Corner) IsTypical() bool { return c.RScale == 1 && c.CScale == 1 }

// Validate reports whether the corner is usable.
func (c Corner) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("tech: corner has no name")
	}
	if c.RScale <= 0 || c.CScale <= 0 {
		return fmt.Errorf("tech: corner %s: scales must be positive, got R×%g C×%g", c.Name, c.RScale, c.CScale)
	}
	// A corner's delays are read at DelayScale, which must itself be a
	// positive finite number.
	if d := c.DelayScale(); d == 0 || math.IsInf(d, 1) {
		return fmt.Errorf("tech: corner %s: delay scale R×%g·C×%g = %g is out of range", c.Name, c.RScale, c.CScale, d)
	}
	return nil
}

// String renders the corner as its canonical spec form, name:rscale:cscale.
func (c Corner) String() string {
	return fmt.Sprintf("%s:%g:%g", c.Name, c.RScale, c.CScale)
}

// Typical is the identity corner: the process exactly as parameterized.
func Typical() Corner { return Corner{Name: "typ", RScale: 1, CScale: 1} }

// Slow is the worst-case corner: slow silicon and pessimistic extraction.
// The 1983-era derates are deliberately round — ±30% on channel
// resistance over process and temperature, ±10% on oxide and junction
// capacitance — matching the hand margins designers of the period applied
// to Mead & Conway sheet numbers.
func Slow() Corner { return Corner{Name: "slow", RScale: 1.30, CScale: 1.10} }

// Fast is the best-case corner: strong silicon, light extraction. Used
// for race/hold-style margins where early arrivals hurt.
func Fast() Corner { return Corner{Name: "fast", RScale: 0.75, CScale: 0.95} }

// Corners returns the builtin three-corner signoff set in slow-first
// order.
func Corners() []Corner { return []Corner{Slow(), Typical(), Fast()} }

// CornerByName resolves one builtin corner name.
func CornerByName(name string) (Corner, bool) {
	switch name {
	case "slow":
		return Slow(), true
	case "typ", "typical":
		return Typical(), true
	case "fast":
		return Fast(), true
	}
	return Corner{}, false
}

// ParseCorners parses a -corners flag value: a comma-separated list where
// each element is either a builtin name (slow, typ, fast) or a custom
// corner spec name:rscale:cscale (e.g. "hot:1.45:1.2"). Names must be
// unique within the list. An empty spec yields nil.
func ParseCorners(spec string) ([]Corner, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Corner
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		var c Corner
		if parts := strings.Split(field, ":"); len(parts) == 3 {
			rs, err1 := strconv.ParseFloat(parts[1], 64)
			cs, err2 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("tech: corner %q: want name:rscale:cscale with numeric scales", field)
			}
			c = Corner{Name: strings.TrimSpace(parts[0]), RScale: rs, CScale: cs}
		} else if len(parts) == 1 {
			var ok bool
			if c, ok = CornerByName(field); !ok {
				return nil, fmt.Errorf("tech: unknown corner %q (builtins: slow, typ, fast; custom: name:rscale:cscale)", field)
			}
		} else {
			return nil, fmt.Errorf("tech: corner %q: want a builtin name or name:rscale:cscale", field)
		}
		out = append(out, c)
	}
	if err := ValidateCorners(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateCorners reports whether a corner list is usable: every corner
// valid, no name listed twice.
func ValidateCorners(corners []Corner) error {
	seen := make(map[string]bool, len(corners))
	for _, c := range corners {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("tech: corner %q listed twice", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Scaled returns the parameter set derated to the given corner factors:
// channel resistances ×rScale, capacitances ×cScale. Voltages and
// geometry are unchanged — this models drive strength and extraction
// spread, not a supply or lithography shift.
func (p Params) Scaled(rScale, cScale float64) Params {
	q := p
	q.REnh *= rScale
	q.RPass *= rScale
	q.RDep *= rScale
	q.CGate *= cScale
	q.CDiffArea *= cScale
	return q
}

// At is shorthand for Scaled with a Corner.
func (p Params) At(c Corner) Params { return p.Scaled(c.RScale, c.CScale) }
